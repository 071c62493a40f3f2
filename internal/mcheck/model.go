package mcheck

import (
	"fmt"

	"denovogpu/internal/coherence"
	"denovogpu/internal/consistency"
	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
)

// The abstract protocol machine. One model state holds the registry
// (memory + DeNovo owner table), every CU's controller state at
// word granularity, each thread's progress, and the multiset of
// in-flight protocol messages. Transitions are the atomic steps of the
// protocol: a thread issuing its next operation, a background cache
// action (eviction, writeback, lazy-registration kick), the per-CU
// end-of-kernel release, and the delivery of the oldest message of a
// channel. Delivery order is FIFO per (src, dst, variable) channel —
// the guarantee the mesh actually provides (XY routing keeps each
// source/destination pair in order, and every litmus variable lives on
// its own line, homed on its own bank), and the guarantee the real
// controllers rely on (gpucoh orders a word's writethrough ahead of
// its AtomicReq on the same channel; denovo orders RegFwd ahead of a
// WriteBackAck rejection).
//
// The model deliberately simplifies where the simplification only adds
// behaviors (soundness is one-directional, exactly like the oracle):
// lazy-registration kicks can start on any delayed slot rather than
// only the oldest, same-CU atomics to one word are not serialized by a
// pipeline queue, and store-buffer capacity is never exhausted.

// Model capacity limits. Generated and catalog programs sit well below
// these; Check rejects anything larger.
const (
	maxVars         = 6
	maxThreads      = 6
	maxCUs          = 6
	maxOpsPerThread = 8
	// home is the channel-endpoint id of a variable's registry/L2 home.
	home = 0xF
)

type proto uint8

const (
	protoGPU proto = iota
	protoDeNovo
)

// modelCfg is the slice of machine.Config the abstract machine depends
// on.
type modelCfg struct {
	proto   proto
	partial bool // GPU-H: dirty words in the L1 instead of the store buffer
	lazy    bool // DeNovo: delay data-write registration to the next release
	fault   bool // fault injection: acquires skip self-invalidation
	model   consistency.Model
}

func configOf(cfg machine.Config) (modelCfg, error) {
	mc := modelCfg{
		lazy:  cfg.LazyWrites,
		fault: cfg.FaultDisableAcquireInval,
		model: cfg.Model,
	}
	switch cfg.Protocol {
	case machine.ProtoGPU:
		mc.proto = protoGPU
		mc.partial = cfg.Model == consistency.HRF
	case machine.ProtoDeNovo:
		mc.proto = protoDeNovo
	default:
		return mc, fmt.Errorf("mcheck: unknown protocol %v", cfg.Protocol)
	}
	return mc, nil
}

// wstate is a word's state in one CU's L1.
type wstate uint8

const (
	wInvalid wstate = iota
	wClean          // GPU Valid / DeNovo Valid: readable, maybe stale
	wDirty          // GPU-H: unflushed local write
	wReg            // DeNovo: registered (owned, globally authoritative)
)

// mkind is a model message kind.
type mkind uint8

const (
	mReadReq mkind = iota
	mReadResp
	mReadFwd
	mWT
	mWTAck
	mAtomicReq
	mAtomicResp
	mRegReq
	mRegAck
	mRegFwd
	mRegXfer
	mWB
	mWBAck
)

var mkindName = [...]string{
	"ReadReq", "ReadResp", "ReadFwd", "WT", "WTAck", "AtomicReq",
	"AtomicResp", "RegReq", "RegAck", "RegFwd", "RegXfer", "WB", "WBAck",
}

// msg is one in-flight protocol message.
type msg struct {
	kind     mkind
	src, dst uint8 // CU slot or home
	v        uint8 // variable index
	val      uint32
	thread   uint8 // requesting thread (read / atomic round trips)
	req      uint8 // requesting CU (forward chains)
	op       uint8 // litmus.OpKind (atomics)
	stale    bool  // superseded by an acquire at the requester
	accepted bool  // WBAck verdict
}

func (g msg) chanKey() uint16 {
	return uint16(g.src)<<8 | uint16(g.dst)<<4 | uint16(g.v)
}

// vname renders a variable index the way traces and details name it.
func vname[T uint8 | int](v T) string { return fmt.Sprintf("v%d", v) }

func (g msg) String() string {
	ep := func(e uint8) string {
		if e == home {
			return "home"
		}
		return fmt.Sprintf("cu%d", e)
	}
	s := fmt.Sprintf("%s %s->%s v%d val=%d", mkindName[g.kind], ep(g.src), ep(g.dst), g.v, g.val)
	if g.stale {
		s += " stale"
	}
	return s
}

// cuState is one CU's controller state, word-granular per variable.
type cuState struct {
	st  [maxVars]wstate
	val [maxVars]uint32

	// Coalescing store buffer in insertion order; at most one slot per
	// variable (each variable is its own word).
	sbVar [maxVars]uint8
	sbVal [maxVars]uint32
	sbLen uint8

	lazy  uint8 // DeNovo: buffered write not yet registering (bitmask)
	regIn uint8 // DeNovo: registration in flight (bitmask)

	wtCnt [maxVars]uint8  // GPU: outstanding writethroughs per variable
	wtVal [maxVars]uint32 // GPU: newest in-flight writethrough value

	// DeNovo registration-transaction bookkeeping.
	syncQ    [maxVars][maxThreads]uint8 // queued sync waiters (thread ids)
	syncQLen [maxVars]uint8
	defFwd   [maxVars]uint8              // deferred RegFwd requester+1 (0 = none)
	defRead  [maxVars][maxThreads]uint16 // deferred forwarded reads (packed)
	defReadN [maxVars]uint8

	// Victim buffer: evicted registered words with writebacks in flight.
	vPresent  uint8
	vServed   uint8 // a RegFwd was served from the victim copy
	vRejected uint8 // the registry rejected the writeback (stale)
	vVal      [maxVars]uint32
}

func packDefRead(req, thread uint8, stale bool) uint16 {
	p := uint16(req)<<8 | uint16(thread)
	if stale {
		p |= 1 << 15
	}
	return p
}

func unpackDefRead(p uint16) (req, thread uint8, stale bool) {
	return uint8(p >> 8 & 0x7F), uint8(p & 0xFF), p&(1<<15) != 0
}

func (c *cuState) sbLookup(v uint8) (uint32, bool) {
	for i := uint8(0); i < c.sbLen; i++ {
		if c.sbVar[i] == v {
			return c.sbVal[i], true
		}
	}
	return 0, false
}

// sbInsert coalesces in place (keeping insertion order) or appends.
func (c *cuState) sbInsert(v uint8, val uint32) {
	for i := uint8(0); i < c.sbLen; i++ {
		if c.sbVar[i] == v {
			c.sbVal[i] = val
			return
		}
	}
	c.sbVar[c.sbLen] = v
	c.sbVal[c.sbLen] = val
	c.sbLen++
}

func (c *cuState) sbRemove(v uint8) (uint32, bool) {
	for i := uint8(0); i < c.sbLen; i++ {
		if c.sbVar[i] == v {
			val := c.sbVal[i]
			copy(c.sbVar[i:c.sbLen-1], c.sbVar[i+1:c.sbLen])
			copy(c.sbVal[i:c.sbLen-1], c.sbVal[i+1:c.sbLen])
			c.sbLen--
			return val, true
		}
	}
	return 0, false
}

// state is one node of the exploration graph.
type state struct {
	mem   [maxVars]uint32
	owner [maxVars]int8 // DeNovo registry owner, -1 = memory
	cus   [maxCUs]cuState

	pcs       [maxThreads]uint8
	blocked   uint8 // thread bitmask: waiting on a message delivery
	relIssued uint8 // thread bitmask: release drain phase done
	finalRel  uint8 // CU bitmask: end-of-kernel release issued

	// relWait is the DeNovo release fence's snapshot: the variables
	// buffered in the CU when thread ti issued its release. The fence
	// waits only for these to register — a write buffered by another
	// thread after the issue does not (and must not) block the release,
	// exactly like the real controller's per-release waiter.
	relWait [maxThreads]uint8

	loads   [maxThreads][maxOpsPerThread]uint32
	loadLen [maxThreads]uint8

	msgs []msg

	// viol records a protocol-step violation discovered while applying a
	// transition (the model-level analogue of a controller panic). Not
	// part of the encoded state; exploration stops when it is set.
	viol       string
	violDetail string
}

// copyFrom overwrites s with p for a model of nc CUs and nt threads,
// reusing s's message backing array so an explorer can keep one state
// buffer per depth for its whole run. The CUs and loads past nc and nt
// are left alone: the model never touches them, so in both states they
// hold what the initial state does as long as the buffer held only
// states of this shape (see explorer.fitShape).
func (s *state) copyFrom(p *state, nc, nt int) {
	s.mem, s.owner = p.mem, p.owner
	copy(s.cus[:nc], p.cus[:nc])
	s.pcs, s.blocked, s.relIssued, s.finalRel = p.pcs, p.blocked, p.relIssued, p.finalRel
	s.relWait = p.relWait
	copy(s.loads[:nt], p.loads[:nt])
	s.loadLen = p.loadLen
	s.msgs = append(s.msgs[:0], p.msgs...)
	s.viol, s.violDetail = p.viol, p.violDetail
}

func (s *state) clone() *state {
	n := new(state)
	n.copyFrom(s, maxCUs, maxThreads)
	return n
}

func (s *state) fail(name, detail string) {
	if s.viol == "" {
		s.viol, s.violDetail = name, detail
	}
}

// model binds a configuration and program to the transition system.
type model struct {
	cfg       modelCfg
	mcfg      machine.Config
	p         *litmus.Program
	nv, nt    int
	nc        int
	threadCU  []uint8
	cuThreads [][]int
}

func newModel(cfg machine.Config, p *litmus.Program) (*model, error) {
	mc, err := configOf(cfg)
	if err != nil {
		return nil, err
	}
	m := &model{cfg: mc, mcfg: cfg, p: p, nv: len(p.Vars), nt: len(p.Threads)}
	if m.nv > maxVars {
		return nil, fmt.Errorf("mcheck: program %q has %d variables (limit %d)", p.Name, m.nv, maxVars)
	}
	if m.nt > maxThreads {
		return nil, fmt.Errorf("mcheck: program %q has %d threads (limit %d)", p.Name, m.nt, maxThreads)
	}
	cuSlot := make(map[int]int)
	m.threadCU = make([]uint8, m.nt)
	for i, t := range p.Threads {
		if len(t.Ops) > maxOpsPerThread {
			return nil, fmt.Errorf("mcheck: program %q thread %d has %d ops (limit %d)", p.Name, i, len(t.Ops), maxOpsPerThread)
		}
		slot, ok := cuSlot[t.CU]
		if !ok {
			slot = len(cuSlot)
			cuSlot[t.CU] = slot
			m.cuThreads = append(m.cuThreads, nil)
		}
		m.threadCU[i] = uint8(slot)
		m.cuThreads[slot] = append(m.cuThreads[slot], i)
	}
	m.nc = len(cuSlot)
	if m.nc > maxCUs {
		return nil, fmt.Errorf("mcheck: program %q uses %d CUs (limit %d)", p.Name, m.nc, maxCUs)
	}
	return m, nil
}

func (m *model) initial() *state {
	s := new(state)
	m.reset(s)
	return s
}

// reset makes s the initial state, keeping its message buffer.
func (m *model) reset(s *state) {
	*s = state{msgs: s.msgs[:0]}
	for v := 0; v < maxVars; v++ {
		s.owner[v] = -1
	}
}

// applyOp evaluates a sync operation against a current value.
func applyOp(kind litmus.OpKind, cur, operand uint32) (next, ret uint32, writes bool) {
	switch kind {
	case litmus.OpSyncLoad:
		return cur, cur, false
	case litmus.OpSyncStore:
		return operand, 0, true
	case litmus.OpSyncAdd:
		return cur + operand, cur, true
	}
	panic(fmt.Sprintf("mcheck: applyOp on non-sync op %v", kind))
}

func (m *model) record(s *state, ti int, val uint32) {
	s.loads[ti][s.loadLen[ti]] = val
	s.loadLen[ti]++
}

func (m *model) opOf(ti int, s *state) litmus.Op {
	return m.p.Threads[ti].Ops[s.pcs[ti]]
}

// loadLocal resolves a read against the CU's local copies in the same
// priority order as the real controllers: GPU checks dirty words, then
// the store buffer, then in-flight writethroughs, then clean copies;
// DeNovo checks the store buffer, then any non-invalid word.
func (m *model) loadLocal(cu *cuState, v uint8) (uint32, bool) {
	if m.cfg.proto == protoGPU {
		if m.cfg.partial && cu.st[v] == wDirty {
			return cu.val[v], true
		}
		if val, ok := cu.sbLookup(v); ok {
			return val, true
		}
		if cu.wtCnt[v] > 0 {
			return cu.wtVal[v], true
		}
		if cu.st[v] != wInvalid {
			return cu.val[v], true
		}
		return 0, false
	}
	if val, ok := cu.sbLookup(v); ok {
		return val, true
	}
	if cu.st[v] != wInvalid {
		return cu.val[v], true
	}
	return 0, false
}

func (m *model) sendWT(s *state, cu *cuState, ci, v uint8, val uint32) {
	cu.wtCnt[v]++
	cu.wtVal[v] = val
	s.msgs = append(s.msgs, msg{kind: mWT, src: ci, dst: home, v: v, val: val})
}

func (m *model) sendRegReq(s *state, cu *cuState, ci, v uint8) {
	cu.regIn |= 1 << v
	cu.lazy &^= 1 << v // a registration in flight absorbs a delayed slot
	s.msgs = append(s.msgs, msg{kind: mRegReq, src: ci, dst: home, v: v})
}

// storeLocal performs a plain (data) store.
func (m *model) storeLocal(s *state, ci, v uint8, val uint32) {
	cu := &s.cus[ci]
	if m.cfg.proto == protoGPU {
		if m.cfg.partial {
			cu.st[v] = wDirty
			cu.val[v] = val
			return
		}
		cu.sbInsert(v, val)
		if cu.st[v] != wInvalid {
			cu.st[v] = wClean
			cu.val[v] = val
		}
		return
	}
	// DeNovo.
	if cu.st[v] == wReg {
		cu.val[v] = val
		return
	}
	if _, ok := cu.sbLookup(v); ok {
		cu.sbInsert(v, val) // coalesce; registration already arranged
		return
	}
	cu.sbInsert(v, val)
	if cu.regIn&(1<<v) != 0 {
		return // ride the in-flight (sync) registration
	}
	if m.cfg.lazy {
		cu.lazy |= 1 << v
		return
	}
	m.sendRegReq(s, cu, ci, v)
}

// releaseIssue is the drain phase of a global release: GPU drains the
// store buffer and flushes dirty words as writethroughs; DeNovo starts
// registration of every delayed slot.
func (m *model) releaseIssue(s *state, ci uint8) {
	cu := &s.cus[ci]
	if m.cfg.proto == protoGPU {
		for cu.sbLen > 0 {
			v, val := cu.sbVar[0], cu.sbVal[0]
			cu.sbRemove(v)
			m.sendWT(s, cu, ci, v, val)
		}
		if m.cfg.partial {
			for v := 0; v < m.nv; v++ {
				if cu.st[v] == wDirty {
					m.sendWT(s, cu, ci, uint8(v), cu.val[v])
					cu.st[v] = wClean
				}
			}
		}
		return
	}
	if m.cfg.proto == protoDeNovo {
		for v := uint8(0); int(v) < m.nv; v++ {
			if cu.lazy&(1<<v) != 0 {
				m.sendRegReq(s, cu, ci, v)
			}
		}
	}
}

// fenceClear reports whether thread ti's global release fence has
// passed. GPU: the issue phase drained the buffer and flushed dirty
// words, so the fence waits for the CU's outstanding-writethrough
// count to reach zero (a CU-wide counter, as in the real controller —
// acks for another thread's concurrent flushes are also awaited).
// DeNovo: the fence waits for the issue-time snapshot of buffered
// variables to register; writes buffered afterwards by other threads
// do not block it.
func (m *model) fenceClear(s *state, ti int) bool {
	ci := m.threadCU[ti]
	cu := &s.cus[ci]
	if m.cfg.proto == protoGPU {
		for v := 0; v < m.nv; v++ {
			if cu.wtCnt[v] != 0 {
				return false
			}
		}
		return true
	}
	for i := uint8(0); i < cu.sbLen; i++ {
		if s.relWait[ti]&(1<<cu.sbVar[i]) != 0 {
			return false
		}
	}
	return true
}

// acquireInval applies a global acquire at a CU: clean copies are
// self-invalidated (dirty and registered words are the CU's own data)
// and in-flight fills destined for this CU become stale — they must
// still complete their waiting loads, but must not install.
func (m *model) acquireInval(s *state, ci uint8) {
	if m.cfg.fault {
		return
	}
	cu := &s.cus[ci]
	for v := 0; v < m.nv; v++ {
		if cu.st[v] == wClean {
			cu.st[v] = wInvalid
		}
	}
	for i := range s.msgs {
		g := &s.msgs[i]
		switch {
		case g.kind == mReadReq && g.src == ci,
			g.kind == mReadResp && g.dst == ci,
			g.kind == mReadFwd && g.req == ci:
			g.stale = true
		}
	}
	// Reads deferred at remote owners on our behalf are also stale.
	for c := 0; c < m.nc; c++ {
		o := &s.cus[c]
		for v := 0; v < m.nv; v++ {
			for i := uint8(0); i < o.defReadN[v]; i++ {
				if req, _, _ := unpackDefRead(o.defRead[v][i]); req == ci {
					o.defRead[v][i] |= 1 << 15
				}
			}
		}
	}
}

// step applies thread ti's next operation (or one phase of it).
func (m *model) step(s *state, ti int) {
	op := m.opOf(ti, s)
	ci := m.threadCU[ti]
	cu := &s.cus[ci]
	v := uint8(op.Var)
	scope := m.cfg.model.Effective(op.Scope)

	switch op.Kind {
	case litmus.OpLoad:
		if val, ok := m.loadLocal(cu, v); ok {
			m.record(s, ti, val)
			s.pcs[ti]++
			return
		}
		s.msgs = append(s.msgs, msg{kind: mReadReq, src: ci, dst: home, v: v, thread: uint8(ti)})
		s.blocked |= 1 << ti
		return
	case litmus.OpStore:
		m.storeLocal(s, ci, v, op.Val)
		s.pcs[ti]++
		return
	}

	// Synchronization.
	releasing := (op.Kind == litmus.OpSyncStore || op.Kind == litmus.OpSyncAdd) &&
		scope == coherence.ScopeGlobal
	acquiring := (op.Kind == litmus.OpSyncLoad || op.Kind == litmus.OpSyncAdd) &&
		scope == coherence.ScopeGlobal

	if releasing && s.relIssued&(1<<ti) == 0 {
		// Release phase 1: start the drain. The operation itself performs
		// once the fence clears (enabledness gates on fenceClear).
		m.releaseIssue(s, ci)
		if m.cfg.proto == protoDeNovo {
			var w uint8
			for i := uint8(0); i < cu.sbLen; i++ {
				w |= 1 << cu.sbVar[i]
			}
			s.relWait[ti] = w
		}
		s.relIssued |= 1 << ti
		return
	}

	if m.cfg.proto == protoGPU {
		if scope == coherence.ScopeLocal {
			m.gpuLocalAtomic(s, ti, ci, op, v)
			return
		}
		// Global: flush this word's local copies ahead of the remote
		// atomic — same-channel FIFO applies them at the home first.
		if val, ok := cu.sbRemove(v); ok {
			m.sendWT(s, cu, ci, v, val)
		}
		if m.cfg.partial && cu.st[v] == wDirty {
			m.sendWT(s, cu, ci, v, cu.val[v])
		}
		cu.st[v] = wInvalid
		s.msgs = append(s.msgs, msg{
			kind: mAtomicReq, src: ci, dst: home, v: v,
			val: op.Val, thread: uint8(ti), op: uint8(op.Kind),
		})
		s.blocked |= 1 << ti
		return
	}

	// DeNovo.
	if scope == coherence.ScopeLocal && m.cfg.lazy {
		m.denovoLocalAtomic(s, ti, ci, op, v)
		return
	}
	m.denovoSync(s, ti, ci, op, v, acquiring)
}

// gpuLocalAtomic performs a locally scoped GPU-H synchronization at
// the L1: read the local copy (fetching on a miss), RMW, and buffer a
// written result as a dirty word.
func (m *model) gpuLocalAtomic(s *state, ti int, ci uint8, op litmus.Op, v uint8) {
	cu := &s.cus[ci]
	cur, ok := m.loadLocal(cu, v)
	if !ok {
		s.msgs = append(s.msgs, msg{kind: mReadReq, src: ci, dst: home, v: v, thread: uint8(ti)})
		s.blocked |= 1 << ti
		return
	}
	m.finishGPULocal(s, ti, ci, op, v, cur)
}

func (m *model) finishGPULocal(s *state, ti int, ci uint8, op litmus.Op, v uint8, cur uint32) {
	cu := &s.cus[ci]
	next, ret, writes := applyOp(op.Kind, cur, op.Val)
	if op.Kind != litmus.OpSyncStore {
		m.record(s, ti, ret)
	}
	if writes {
		if m.cfg.partial {
			cu.st[v] = wDirty
			cu.val[v] = next
		} else {
			cu.sbInsert(v, next)
			if cu.st[v] != wInvalid {
				cu.val[v] = next
			}
		}
	}
	s.pcs[ti]++
}

// denovoLocalAtomic (DH+lazy) performs a locally scoped sync at the L1
// without ownership: the result is buffered like a lazy write and
// registered at the next global release.
func (m *model) denovoLocalAtomic(s *state, ti int, ci uint8, op litmus.Op, v uint8) {
	cu := &s.cus[ci]
	var cur uint32
	if val, ok := cu.sbLookup(v); ok {
		cur = val
	} else if cu.st[v] != wInvalid {
		cur = cu.val[v]
	} else {
		s.msgs = append(s.msgs, msg{kind: mReadReq, src: ci, dst: home, v: v, thread: uint8(ti)})
		s.blocked |= 1 << ti
		return
	}
	next, ret, writes := applyOp(op.Kind, cur, op.Val)
	if op.Kind != litmus.OpSyncStore {
		m.record(s, ti, ret)
	}
	if cu.st[v] == wReg {
		if writes {
			cu.val[v] = next
		}
	} else if writes {
		cu.sbInsert(v, next)
		if cu.regIn&(1<<v) == 0 {
			cu.lazy |= 1 << v
		}
		if cu.st[v] == wClean {
			cu.val[v] = next
		}
	}
	s.pcs[ti]++
}

// denovoSync performs a registered synchronization (global scope, or
// DH's eager local scope): hit in place on an owned word, otherwise
// queue on the word's registration transaction.
func (m *model) denovoSync(s *state, ti int, ci uint8, op litmus.Op, v uint8, acquiring bool) {
	cu := &s.cus[ci]
	if cu.st[v] == wReg {
		next, ret, _ := applyOp(op.Kind, cu.val[v], op.Val)
		cu.val[v] = next
		if op.Kind != litmus.OpSyncStore {
			m.record(s, ti, ret)
		}
		s.relIssued &^= 1 << ti
		s.relWait[ti] = 0
		s.pcs[ti]++
		if acquiring {
			m.acquireInval(s, ci)
		}
		return
	}
	if cu.regIn&(1<<v) == 0 {
		m.sendRegReq(s, cu, ci, v)
	}
	cu.syncQ[v][cu.syncQLen[v]] = uint8(ti)
	cu.syncQLen[v]++
	s.blocked |= 1 << ti
}

// ownershipArrived handles RegAck and RegXfer at a CU: the buffered
// write (if any) supersedes the carried value, queued sync operations
// are serviced in order, the word installs as registered, and deferred
// remote requests are passed onward.
func (m *model) ownershipArrived(s *state, ci, v uint8, carried uint32) {
	cu := &s.cus[ci]
	if cu.regIn&(1<<v) == 0 {
		s.fail("reg-single", fmt.Sprintf("cu%d: ownership of v%d arrived without a registration in flight", ci, v))
		return
	}
	cu.regIn &^= 1 << v
	val := carried
	if sv, ok := cu.sbRemove(v); ok {
		val = sv // our buffered write supersedes the carried value
	}
	for i := uint8(0); i < cu.syncQLen[v]; i++ {
		ti := int(cu.syncQ[v][i])
		op := m.opOf(ti, s)
		next, ret, _ := applyOp(op.Kind, val, op.Val)
		val = next
		if op.Kind != litmus.OpSyncStore {
			m.record(s, ti, ret)
		}
		s.blocked &^= 1 << ti
		s.relIssued &^= 1 << ti
		s.relWait[ti] = 0
		s.pcs[ti]++
		if (op.Kind == litmus.OpSyncLoad || op.Kind == litmus.OpSyncAdd) &&
			m.cfg.model.Effective(op.Scope) == coherence.ScopeGlobal {
			m.acquireInval(s, ci)
		}
	}
	cu.syncQLen[v] = 0
	cu.st[v] = wReg
	cu.val[v] = val
	// Serve reads forwarded while the registration was in flight (the
	// registry ordered them before any later ownership transfer) …
	for i := uint8(0); i < cu.defReadN[v]; i++ {
		req, thread, stale := unpackDefRead(cu.defRead[v][i])
		s.msgs = append(s.msgs, msg{
			kind: mReadResp, src: ci, dst: req, v: v,
			val: val, thread: thread, stale: stale,
		})
	}
	cu.defReadN[v] = 0
	// … then pass ownership onward if a remote registration queued
	// behind our own accesses.
	if cu.defFwd[v] != 0 {
		req := cu.defFwd[v] - 1
		cu.defFwd[v] = 0
		cu.st[v] = wInvalid
		s.msgs = append(s.msgs, msg{kind: mRegXfer, src: ci, dst: req, v: v, val: val})
	}
}

// head returns the index of the oldest message of channel (src, dst,
// v), or -1 if the channel is empty.
func (s *state) head(src, dst, v uint8) int {
	for i := range s.msgs {
		if s.msgs[i].src == src && s.msgs[i].dst == dst && s.msgs[i].v == v {
			return i
		}
	}
	return -1
}

// deliver processes the oldest message of channel (src, dst, v).
func (m *model) deliver(s *state, src, dst, v uint8) {
	idx := s.head(src, dst, v)
	if idx < 0 {
		s.fail("model-internal", fmt.Sprintf("deliver on empty channel %d->%d v%d", src, dst, v))
		return
	}
	g := s.msgs[idx]
	s.msgs = append(s.msgs[:idx], s.msgs[idx+1:]...)
	if dst == home {
		m.deliverHome(s, g)
	} else {
		m.deliverCU(s, g)
	}
}

// deliverHome processes a message at the variable's registry/L2 home.
func (m *model) deliverHome(s *state, g msg) {
	v := g.v
	switch g.kind {
	case mReadReq:
		if o := s.owner[v]; o >= 0 {
			s.msgs = append(s.msgs, msg{
				kind: mReadFwd, src: home, dst: uint8(o), v: v,
				req: g.src, thread: g.thread, stale: g.stale,
			})
		} else {
			s.msgs = append(s.msgs, msg{
				kind: mReadResp, src: home, dst: g.src, v: v,
				val: s.mem[v], thread: g.thread, stale: g.stale,
			})
		}
	case mWT:
		if s.owner[v] >= 0 {
			// The L2 bank refuses writethroughs to registered words — the
			// protocols never mix on one word.
			s.fail("protocol-mixing", fmt.Sprintf("writethrough to v%d while registered to cu%d", v, s.owner[v]))
			return
		}
		s.mem[v] = g.val
		s.msgs = append(s.msgs, msg{kind: mWTAck, src: home, dst: g.src, v: v})
	case mAtomicReq:
		if s.owner[v] >= 0 {
			s.fail("protocol-mixing", fmt.Sprintf("remote atomic on v%d while registered to cu%d", v, s.owner[v]))
			return
		}
		next, ret, _ := applyOp(litmus.OpKind(g.op), s.mem[v], g.val)
		s.mem[v] = next
		s.msgs = append(s.msgs, msg{
			kind: mAtomicResp, src: home, dst: g.src, v: v,
			val: ret, thread: g.thread,
		})
	case mRegReq:
		prev := s.owner[v]
		s.owner[v] = int8(g.src)
		if prev < 0 || uint8(prev) == g.src {
			s.msgs = append(s.msgs, msg{kind: mRegAck, src: home, dst: g.src, v: v, val: s.mem[v]})
		} else {
			s.msgs = append(s.msgs, msg{kind: mRegFwd, src: home, dst: uint8(prev), v: v, req: g.src})
		}
	case mWB:
		if s.owner[v] == int8(g.src) {
			s.mem[v] = g.val
			s.owner[v] = -1
			s.msgs = append(s.msgs, msg{kind: mWBAck, src: home, dst: g.src, v: v, accepted: true})
		} else {
			// Stale writeback: ownership moved on; the data is dropped and
			// the evicting CU learns via the nack.
			s.msgs = append(s.msgs, msg{kind: mWBAck, src: home, dst: g.src, v: v})
		}
	default:
		s.fail("model-internal", fmt.Sprintf("home received %s", g.String()))
	}
}

// deliverCU processes a message at a CU.
func (m *model) deliverCU(s *state, g msg) {
	ci := g.dst
	cu := &s.cus[ci]
	v := g.v
	switch g.kind {
	case mReadResp:
		ti := int(g.thread)
		op := m.opOf(ti, s)
		// Install only when no acquire intervened since the request.
		if !g.stale {
			if m.cfg.proto == protoGPU {
				if !(m.cfg.partial && cu.st[v] == wDirty) {
					cu.st[v] = wClean
					// Own buffered or in-flight writes are newer than the
					// fill; never resurrect the pre-write value.
					if sv, ok := cu.sbLookup(v); ok {
						cu.val[v] = sv
					} else if cu.wtCnt[v] > 0 {
						cu.val[v] = cu.wtVal[v]
					} else {
						cu.val[v] = g.val
					}
				}
			} else if cu.st[v] == wInvalid {
				cu.st[v] = wClean
				cu.val[v] = g.val
			}
		}
		s.blocked &^= 1 << ti
		switch {
		case op.Kind == litmus.OpLoad:
			// The fill completes the waiting load with the fetched value,
			// stale or not (a racy read may observe pre-acquire data).
			m.record(s, ti, g.val)
			s.pcs[ti]++
		case m.cfg.proto == protoGPU:
			m.finishGPULocal(s, ti, ci, op, v, g.val)
		default:
			// DH+lazy local atomic: retry from scratch through the buffer
			// and cache so concurrent local atomics cannot lose updates.
			m.denovoLocalAtomic(s, ti, ci, op, v)
		}
	case mReadFwd:
		switch {
		case cu.st[v] == wReg:
			s.msgs = append(s.msgs, msg{
				kind: mReadResp, src: ci, dst: g.req, v: v,
				val: cu.val[v], thread: g.thread, stale: g.stale,
			})
		case cu.vPresent&(1<<v) != 0:
			s.msgs = append(s.msgs, msg{
				kind: mReadResp, src: ci, dst: g.req, v: v,
				val: cu.vVal[v], thread: g.thread, stale: g.stale,
			})
		case cu.regIn&(1<<v) != 0:
			cu.defRead[v][cu.defReadN[v]] = packDefRead(g.req, g.thread, g.stale)
			cu.defReadN[v]++
		default:
			s.fail("swmr-registration", fmt.Sprintf("cu%d: forwarded read for v%d it does not own", ci, v))
		}
	case mWTAck:
		if cu.wtCnt[v] == 0 {
			s.fail("wt-balance", fmt.Sprintf("cu%d: writethrough ack for v%d with none outstanding", ci, v))
			return
		}
		cu.wtCnt[v]--
	case mAtomicResp:
		ti := int(g.thread)
		op := m.opOf(ti, s)
		if op.Kind != litmus.OpSyncStore {
			m.record(s, ti, g.val)
		}
		s.blocked &^= 1 << ti
		s.relIssued &^= 1 << ti
		s.relWait[ti] = 0
		s.pcs[ti]++
		if op.Kind == litmus.OpSyncLoad || op.Kind == litmus.OpSyncAdd {
			m.acquireInval(s, ci)
		}
	case mRegAck, mRegXfer:
		m.ownershipArrived(s, ci, v, g.val)
	case mRegFwd:
		req := g.req
		switch {
		case cu.vPresent&(1<<v) != 0 && cu.vServed&(1<<v) == 0:
			// Serve from the victim copy, even while re-registering.
			s.msgs = append(s.msgs, msg{kind: mRegXfer, src: ci, dst: req, v: v, val: cu.vVal[v]})
			if cu.vRejected&(1<<v) != 0 {
				cu.vPresent &^= 1 << v
				cu.vServed &^= 1 << v
				cu.vRejected &^= 1 << v
			} else {
				cu.vServed |= 1 << v
			}
		case cu.regIn&(1<<v) != 0:
			if cu.defFwd[v] != 0 {
				s.fail("reg-single", fmt.Sprintf("cu%d: second RegFwd for v%d deferred behind the first", ci, v))
				return
			}
			cu.defFwd[v] = req + 1
		case cu.st[v] == wReg:
			val := cu.val[v]
			cu.st[v] = wInvalid
			s.msgs = append(s.msgs, msg{kind: mRegXfer, src: ci, dst: req, v: v, val: val})
		default:
			s.fail("swmr-registration", fmt.Sprintf("cu%d: asked to transfer v%d it does not hold", ci, v))
		}
	case mWBAck:
		if cu.vPresent&(1<<v) == 0 {
			s.fail("wb-lost", fmt.Sprintf("cu%d: writeback ack for v%d without a victim copy", ci, v))
			return
		}
		if g.accepted || cu.vServed&(1<<v) != 0 {
			cu.vPresent &^= 1 << v
			cu.vServed &^= 1 << v
			cu.vRejected &^= 1 << v
		} else {
			// Rejected before any RegFwd: the registry believes someone
			// else owns the word, so a forward is on its way (same-channel
			// FIFO would otherwise have delivered it first). Hold the
			// victim copy for it.
			cu.vRejected |= 1 << v
		}
	default:
		s.fail("model-internal", fmt.Sprintf("cu%d received %s", ci, g.String()))
	}
}

// writeBack evicts a registered word into the victim buffer.
func (m *model) writeBack(s *state, ci, v uint8) {
	cu := &s.cus[ci]
	cu.st[v] = wInvalid
	cu.vPresent |= 1 << v
	cu.vVal[v] = cu.val[v]
	cu.vServed &^= 1 << v
	cu.vRejected &^= 1 << v
	s.msgs = append(s.msgs, msg{kind: mWB, src: ci, dst: home, v: v, val: cu.vVal[v]})
}

// allOpsDone reports whether every thread has issued (and completed)
// all of its operations.
func (m *model) allOpsDone(s *state) bool {
	if s.blocked != 0 {
		return false
	}
	for ti := range m.p.Threads {
		if int(s.pcs[ti]) < len(m.p.Threads[ti].Ops) {
			return false
		}
	}
	return true
}

// cuDone reports whether every thread of CU slot ci has finished.
func (m *model) cuDone(s *state, ci int) bool {
	for _, ti := range m.cuThreads[ci] {
		if int(s.pcs[ti]) < len(m.p.Threads[ti].Ops) || s.blocked&(1<<ti) != 0 {
			return false
		}
	}
	return true
}

// terminal reports whether the execution is complete: all operations
// done (done is m.allOpsDone(s), which callers also pass to
// enabledInto), every CU's end-of-kernel release issued and drained,
// and no message in flight.
func (m *model) terminal(s *state, done bool) bool {
	if len(s.msgs) != 0 || !done {
		return false
	}
	for ci := 0; ci < m.nc; ci++ {
		if s.finalRel&(1<<ci) == 0 {
			return false
		}
		cu := &s.cus[ci]
		if cu.sbLen != 0 || cu.lazy != 0 || cu.regIn != 0 || cu.vPresent != 0 {
			return false
		}
		for v := 0; v < m.nv; v++ {
			if cu.wtCnt[v] != 0 || cu.syncQLen[v] != 0 || cu.defReadN[v] != 0 || cu.defFwd[v] != 0 {
				return false
			}
		}
	}
	return true
}

// outKey is a terminal state's outcome in comparable form, so an
// explorer can recognize an outcome it has already recorded without
// building (and allocating) a litmus.Outcome. Load slots past a
// thread's loadLen are always zero, so equal keys mean equal outcomes.
type outKey struct {
	loads   [maxThreads][maxOpsPerThread]uint32
	loadLen [maxThreads]uint8
	final   [maxVars]uint32
}

// outcomeKey reads the terminal state the way the host does: a
// registered word's authoritative copy lives in its owner's L1,
// everything else in memory.
func (m *model) outcomeKey(s *state) (outKey, bool) {
	k := outKey{loads: s.loads, loadLen: s.loadLen}
	for v := 0; v < m.nv; v++ {
		if ow := s.owner[v]; ow >= 0 {
			if s.cus[ow].st[v] != wReg {
				s.fail("l2-agreement", fmt.Sprintf("terminal: registry says cu%d owns v%d but its L1 does not hold it", ow, v))
				return k, false
			}
			k.final[v] = s.cus[ow].val[v]
		} else {
			k.final[v] = s.mem[v]
		}
	}
	return k, true
}

// outcomeOf converts a key to the litmus outcome it stands for.
func (m *model) outcomeOf(k *outKey) litmus.Outcome {
	var o litmus.Outcome
	o.Loads = make([][]uint32, m.nt)
	for ti := 0; ti < m.nt; ti++ {
		o.Loads[ti] = append([]uint32(nil), k.loads[ti][:k.loadLen[ti]]...)
	}
	o.Final = make([]uint32, m.nv)
	copy(o.Final, k.final[:])
	return o
}
