package mesi

import (
	"fmt"

	"denovogpu/internal/cache"
	"denovogpu/internal/coherence"
	"denovogpu/internal/energy"
	"denovogpu/internal/mem"
	"denovogpu/internal/noc"
	"denovogpu/internal/sim"
	"denovogpu/internal/stats"
)

// Interned counter keys: hot-path counting indexes an array
// instead of hashing the name per event (see stats.Intern).
var (
	kL1InvalidatedLines = stats.Intern("l1.invalidated_lines")
	kL1ReadHits         = stats.Intern("l1.read_hits")
	kL1ReadMisses       = stats.Intern("l1.read_misses")
	kL1SyncHits         = stats.Intern("l1.sync_hits")
	kL1SyncMisses       = stats.Intern("l1.sync_misses")
	kL1WriteHits        = stats.Intern("l1.write_hits")
	kL1WriteMisses      = stats.Intern("l1.write_misses")
	kL1Writebacks       = stats.Intern("l1.writebacks")
	kMesiFwdsServed     = stats.Intern("mesi.fwds_served")
)

// Line states are stored uniformly across the entry's word states:
// Invalid, Valid (= Shared), Registered (= Modified). Exclusive is
// folded into Modified (silent E->M upgrade), a common simplification
// that does not change any traffic the paper's analysis cares about.

type waiterKind int

const (
	waitRead waiterKind = iota
	waitWrite
	waitAtomic
)

type waiter struct {
	kind waiterKind
	need mem.WordMask
	// write payload
	mask mem.WordMask
	data [mem.WordsPerLine]uint32
	// atomic payload
	op       coherence.AtomicOp
	word     int
	operand  uint32
	operand2 uint32

	readCB   func([mem.WordsPerLine]uint32)
	writeCB  func()
	atomicCB func(uint32)
}

type txn struct {
	line     mem.Line
	wantM    bool
	dataIn   bool
	data     [mem.WordsPerLine]uint32
	acksNeed int // -1 until DataM arrives
	acksGot  int
	waiters  []waiter
	deferred []*coherence.Msg // forwards awaiting our completion
}

// Controller is one CU's MESI L1.
type Controller struct {
	node  noc.NodeID
	eng   *sim.Engine
	mesh  *noc.Mesh
	st    *stats.Stats
	meter *energy.Meter

	cache  *cache.Cache
	mshr   map[mem.Line]*txn
	victim map[mem.Line]*victimLine

	relWaiters []func()
}

type victimLine struct {
	data      [mem.WordsPerLine]uint32
	servedFwd bool
}

// New returns a MESI L1 controller attached at node.
func New(node noc.NodeID, eng *sim.Engine, mesh *noc.Mesh, st *stats.Stats, meter *energy.Meter, l1Bytes, l1Ways int) *Controller {
	c := &Controller{
		node: node, eng: eng, mesh: mesh, st: st, meter: meter,
		cache:  cache.New(l1Bytes, l1Ways, cache.Keep{}),
		mshr:   make(map[mem.Line]*txn),
		victim: make(map[mem.Line]*victimLine),
	}
	mesh.Attach(node, noc.PortL1, c)
	return c
}

var _ coherence.L1 = (*Controller)(nil)

func (c *Controller) send(m *coherence.Msg) { c.mesh.Send(mesiPacket{m}) }

func (c *Controller) lineState(l mem.Line) (st cache.WordState, e *cache.Entry) {
	e = c.cache.Lookup(l)
	if e == nil {
		return cache.Invalid, nil
	}
	return e.State[0], e
}

// ReadLine implements coherence.L1.
func (c *Controller) ReadLine(l mem.Line, need mem.WordMask, cb func([mem.WordsPerLine]uint32)) {
	c.meter.L1Access(1)
	if st, e := c.lineState(l); st != cache.Invalid {
		c.st.IncKey(kL1ReadHits, 1)
		vals := e.Data
		c.eng.Schedule(coherence.L1HitCycles, func() { cb(vals) })
		return
	}
	c.st.IncKey(kL1ReadMisses, 1)
	c.meter.L1Tag(1)
	t := c.ensureTxn(l, false)
	t.waiters = append(t.waiters, waiter{kind: waitRead, need: need, readCB: cb})
}

// WriteLine implements coherence.L1: writes need Modified state; a
// write to a Shared or Invalid line stalls on a GetM (plus its
// invalidation acks) — MESI's write-for-ownership cost, which the
// store-buffer-based GPU protocols avoid.
func (c *Controller) WriteLine(l mem.Line, mask mem.WordMask, data [mem.WordsPerLine]uint32, cb func()) {
	c.meter.L1Access(1)
	if st, e := c.lineState(l); st == cache.Registered {
		for i := 0; i < mem.WordsPerLine; i++ {
			if mask.Has(i) {
				e.Data[i] = data[i]
			}
		}
		c.st.IncKey(kL1WriteHits, 1)
		c.eng.Schedule(coherence.L1HitCycles, cb)
		return
	}
	c.st.IncKey(kL1WriteMisses, 1)
	t := c.ensureTxn(l, true)
	t.waiters = append(t.waiters, waiter{kind: waitWrite, mask: mask, data: data, writeCB: cb})
}

// Atomic implements coherence.L1: synchronization performs locally once
// the line is Modified (scopes are ignored — conventional protocols
// have not been explored with HRF, per the paper's Section 3).
func (c *Controller) Atomic(op coherence.AtomicOp, w mem.Word, operand, operand2 uint32, _ coherence.Scope, cb func(uint32)) {
	l := w.LineOf()
	c.meter.L1Access(1)
	if st, e := c.lineState(l); st == cache.Registered {
		next, ret := op.Apply(e.Data[w.Index()], operand, operand2)
		e.Data[w.Index()] = next
		c.st.IncKey(kL1SyncHits, 1)
		c.eng.Schedule(coherence.L1HitCycles, func() { cb(ret) })
		return
	}
	c.st.IncKey(kL1SyncMisses, 1)
	t := c.ensureTxn(l, true)
	t.waiters = append(t.waiters, waiter{kind: waitAtomic, op: op, word: w.Index(), operand: operand, operand2: operand2, atomicCB: cb})
}

func (c *Controller) ensureTxn(l mem.Line, wantM bool) *txn {
	t, ok := c.mshr[l]
	if !ok {
		t = &txn{line: l, acksNeed: -1}
		c.mshr[l] = t
		if e := c.cache.Peek(l); e != nil {
			e.Pinned = true
		}
		kind := GetS
		if wantM {
			kind = GetM
			t.wantM = true
		}
		c.send(msg(kind, c.node, HomeNode(l), noc.PortL2, l))
		return t
	}
	if wantM && !t.wantM {
		// Upgrade: a read transaction in flight cannot satisfy a write;
		// issue the GetM as well. The directory processes them in
		// order; the DataS and DataM both route here, and Modified
		// subsumes Shared.
		t.wantM = true
		c.send(msg(GetM, c.node, HomeNode(l), noc.PortL2, l))
	}
	return t
}

// Acquire implements coherence.L1: writer-initiated invalidations keep
// caches coherent, so an acquire invalidates nothing — the flip side of
// paying invalidation traffic on every write to shared data.
func (c *Controller) Acquire(coherence.Scope) {}

// Release implements coherence.L1: complete when no transactions are
// outstanding (every prior write holds Modified state).
func (c *Controller) Release(_ coherence.Scope, cb func()) {
	if len(c.mshr) == 0 {
		c.eng.Schedule(coherence.L1HitCycles, cb)
		return
	}
	c.relWaiters = append(c.relWaiters, cb)
}

// Drained implements coherence.L1.
func (c *Controller) Drained() bool {
	return len(c.mshr) == 0 && len(c.victim) == 0
}

// HoldsModified reports whether this L1 holds the line in Modified
// state — the L1 side of the directory's owner agreement, checked by
// the protocol sanitizer (machine.Config.Invariants).
func (c *Controller) HoldsModified(l mem.Line) bool {
	e := c.cache.Peek(l)
	return e != nil && e.State[0] == cache.Registered
}

// CheckInvariants validates the sanitizer's quiesced-state suite for
// this controller: with no transactions outstanding, no release may
// still be waiting (a stranded release waiter is a lost wakeup that
// surfaces as a kernel deadlock).
func (c *Controller) CheckInvariants() error {
	if len(c.mshr) == 0 && len(c.relWaiters) > 0 {
		return fmt.Errorf("mesi: node %d has %d release waiters with no transactions outstanding", c.node, len(c.relWaiters))
	}
	return nil
}

// Deliver implements noc.Handler.
func (c *Controller) Deliver(p noc.Packet) {
	var m *coherence.Msg
	switch pk := p.(type) {
	case mesiPacket:
		m = pk.Msg
	case *coherence.Msg:
		m = pk
	default:
		panic(fmt.Sprintf("mesi: unexpected packet %T", p))
	}
	switch m.Kind {
	case DataS:
		c.dataArrived(m, false)
	case DataM:
		t := c.mshr[m.Line]
		if t != nil {
			t.acksNeed = int(m.Operand)
		}
		c.dataArrived(m, true)
	case InvAck:
		t := c.mshr[m.Line]
		if t == nil {
			panic("mesi: stray InvAck")
		}
		t.acksGot++
		c.maybeComplete(t)
	case Inv:
		c.invalidate(m)
	case FwdGetS:
		c.fwdGetS(m)
	case FwdGetM:
		c.fwdGetM(m)
	case PutAck:
		if v, ok := c.victim[m.Line]; ok {
			_ = v
			delete(c.victim, m.Line)
		}
	default:
		panic(fmt.Sprintf("mesi: L1 got kind %d", int(m.Kind)))
	}
}

func (c *Controller) dataArrived(m *coherence.Msg, modified bool) {
	t := c.mshr[m.Line]
	if t == nil {
		return // e.g. DataS superseded by a completed upgrade
	}
	t.dataIn = true
	t.data = m.Data
	if !modified && !t.wantM {
		c.installShared(t)
		return
	}
	if !modified {
		// DataS for a transaction that was upgraded to GetM: hold the
		// data; the DataM (or forwarded DataM) completes it.
		return
	}
	c.maybeComplete(t)
}

func (c *Controller) maybeComplete(t *txn) {
	if !t.dataIn || t.acksNeed < 0 || t.acksGot < t.acksNeed {
		return
	}
	c.installModified(t)
}

func (c *Controller) frame(l mem.Line) *cache.Entry {
	e := c.cache.Victim(l)
	if e == nil {
		panic("mesi: no victim frame (set fully pinned)")
	}
	if e.Tag && e.Line != l {
		c.evict(e)
	}
	if !e.Tag || e.Line != l {
		e.Reset(l)
	}
	return e
}

func (c *Controller) evict(e *cache.Entry) {
	if e.State[0] == cache.Registered {
		c.st.IncKey(kL1Writebacks, 1)
		c.victim[e.Line] = &victimLine{data: e.Data}
		pm := msg(PutM, c.node, HomeNode(e.Line), noc.PortL2, e.Line)
		pm.Data = e.Data
		c.send(pm)
	}
}

func (c *Controller) installShared(t *txn) {
	e := c.frame(t.line)
	e.Data = t.data
	for i := range e.State {
		e.State[i] = cache.Valid
	}
	c.cache.Touch(e)
	c.meter.L1Access(1)
	c.retire(t, e)
}

func (c *Controller) installModified(t *txn) {
	e := c.frame(t.line)
	e.Data = t.data
	// Apply queued writes and atomics in arrival order.
	delay := sim.Time(coherence.L1HitCycles)
	for _, w := range t.waiters {
		switch w.kind {
		case waitWrite:
			for i := 0; i < mem.WordsPerLine; i++ {
				if w.mask.Has(i) {
					e.Data[i] = w.data[i]
				}
			}
			cb := w.writeCB
			c.eng.Schedule(delay, cb)
		case waitAtomic:
			next, ret := w.op.Apply(e.Data[w.word], w.operand, w.operand2)
			e.Data[w.word] = next
			cb := w.atomicCB
			c.eng.Schedule(delay, func() { cb(ret) })
		case waitRead:
			vals := e.Data
			cb := w.readCB
			c.eng.Schedule(delay, func() { cb(vals) })
		}
		delay++
	}
	t.waiters = nil
	for i := range e.State {
		e.State[i] = cache.Registered
	}
	c.cache.Touch(e)
	c.meter.L1Access(1)
	c.finishTxn(t, e)
}

// retire completes read waiters of a Shared install.
func (c *Controller) retire(t *txn, e *cache.Entry) {
	delay := sim.Time(coherence.L1HitCycles)
	for _, w := range t.waiters {
		if w.kind != waitRead {
			panic("mesi: non-read waiter on a Shared install")
		}
		vals := e.Data
		cb := w.readCB
		c.eng.Schedule(delay, func() { cb(vals) })
		delay++
	}
	t.waiters = nil
	c.finishTxn(t, e)
}

func (c *Controller) finishTxn(t *txn, e *cache.Entry) {
	delete(c.mshr, t.line)
	if e != nil {
		e.Pinned = false
	}
	// Service deferred forwards now that our access is done.
	for _, f := range t.deferred {
		c.serviceFwd(f)
	}
	t.deferred = nil
	if len(c.mshr) == 0 {
		ws := c.relWaiters
		c.relWaiters = nil
		for _, w := range ws {
			w()
		}
	}
}

func (c *Controller) invalidate(m *coherence.Msg) {
	if e := c.cache.Peek(m.Line); e != nil && e.State[0] == cache.Valid {
		for i := range e.State {
			e.State[i] = cache.Invalid
		}
		e.Prune()
		c.st.IncKey(kL1InvalidatedLines, 1)
	}
	// Always ack, even for silently evicted (stale-sharer) lines.
	c.send(msg(InvAck, c.node, m.Requester, noc.PortL1, m.Line))
}

func (c *Controller) fwdGetS(m *coherence.Msg) {
	if t, ok := c.mshr[m.Line]; ok {
		t.deferred = append(t.deferred, m)
		return
	}
	c.serviceFwd(m)
}

func (c *Controller) fwdGetM(m *coherence.Msg) {
	if t, ok := c.mshr[m.Line]; ok {
		t.deferred = append(t.deferred, m)
		return
	}
	c.serviceFwd(m)
}

func (c *Controller) serviceFwd(m *coherence.Msg) {
	var data [mem.WordsPerLine]uint32
	e := c.cache.Peek(m.Line)
	switch {
	case e != nil && e.State[0] == cache.Registered:
		data = e.Data
		if m.Kind == FwdGetS {
			for i := range e.State {
				e.State[i] = cache.Valid // downgrade
			}
		} else {
			for i := range e.State {
				e.State[i] = cache.Invalid
			}
			e.Prune()
		}
	default:
		v, ok := c.victim[m.Line]
		if !ok {
			panic(fmt.Sprintf("mesi: node %d forwarded for %v it does not hold", c.node, m.Line))
		}
		data = v.data
		v.servedFwd = true
	}
	c.meter.L1Access(1)
	c.st.IncKey(kMesiFwdsServed, 1)
	if m.Kind == FwdGetS {
		resp := msg(DataS, c.node, m.Requester, noc.PortL1, m.Line)
		resp.Data = data
		c.send(resp)
		// Copy back to the directory so its data is current.
		pm := msg(PutM, c.node, HomeNode(m.Line), noc.PortL2, m.Line)
		pm.Data = data
		c.send(pm)
		return
	}
	resp := msg(DataM, c.node, m.Requester, noc.PortL1, m.Line)
	resp.Data = data
	resp.Operand = 0 // ownership transfer carries no pending acks
	c.send(resp)
}

// PeekWord implements coherence.L1 (functional host access).
func (c *Controller) PeekWord(w mem.Word) (uint32, bool) {
	if e := c.cache.Peek(w.LineOf()); e != nil && e.State[w.Index()] != cache.Invalid {
		return e.Data[w.Index()], true
	}
	if v, ok := c.victim[w.LineOf()]; ok {
		return v.data[w.Index()], true
	}
	return 0, false
}

// HostInvalidateLine implements coherence.L1. MESI state is per line,
// so any selected word invalidates the whole line.
func (c *Controller) HostInvalidateLine(l mem.Line, _ mem.WordMask) {
	if e := c.cache.Peek(l); e != nil && e.State[0] == cache.Valid {
		for i := range e.State {
			e.State[i] = cache.Invalid
		}
	}
}

// HostSteal functionally removes a Modified line, returning its data.
func (c *Controller) HostSteal(l mem.Line) ([mem.WordsPerLine]uint32, bool) {
	if e := c.cache.Peek(l); e != nil && e.State[0] == cache.Registered {
		data := e.Data
		for i := range e.State {
			e.State[i] = cache.Invalid
		}
		e.Prune()
		return data, true
	}
	return [mem.WordsPerLine]uint32{}, false
}
