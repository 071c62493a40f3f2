// Package l2 implements the shared L2 cache banks. Each of the 16 mesh
// nodes hosts one bank; lines are interleaved across banks by line
// address (NUCA, paper Table 3).
//
// The bank plays two roles, depending on which protocol is driving it:
//
//   - For GPU coherence it is the backing shared cache: it serves full
//     line reads, absorbs writethroughs, and executes remote atomics.
//   - For DeNovo it is additionally the *registry*: per word it either
//     holds the up-to-date data or records which L1 owns (has
//     registered) the word. There is no directory and no sharer list.
//
// One implementation covers both because the GPU protocol simply never
// registers anything: with an empty registry, every read returns the
// full line and no forwards ever happen.
//
// Storage: a bank keeps one 48-byte row per line (the line, a pointer
// to its words in the shared backing image, and an int16 owner per
// word), in blocks of 16 consecutive bank-local lines that one index
// entry locates. Line data itself lives only in the backing image.
//
// Capacity: the bank models DRAM cold-fetch latency and energy for the
// first touch of every line but does not model L2 capacity evictions —
// the paper's 4 MB L2 comfortably holds every workload's footprint, and
// modelling eviction of registered words would add recall machinery the
// paper never exercises. DESIGN.md records this simplification.
package l2

import (
	"fmt"
	"math"

	"denovogpu/internal/coherence"
	"denovogpu/internal/energy"
	"denovogpu/internal/mem"
	"denovogpu/internal/noc"
	"denovogpu/internal/obs"
	"denovogpu/internal/sim"
	"denovogpu/internal/stats"
	"denovogpu/internal/topology"
	"denovogpu/internal/wordmap"
)

// Interned counter keys: hot-path counting indexes an array
// instead of hashing the name per event (see stats.Intern).
var (
	kL2Atomics         = stats.Intern("l2.atomics")
	kL2DramFetches     = stats.Intern("l2.dram_fetches")
	kL2ReadForwards    = stats.Intern("l2.read_forwards")
	kL2RegForwards     = stats.Intern("l2.reg_forwards")
	kL2StaleWritebacks = stats.Intern("l2.stale_writebacks")
	kL2Writethroughs   = stats.Intern("l2.writethroughs")
)

// MemoryOwner marks a word as owned by the bank (not registered).
const MemoryOwner noc.NodeID = -1

// MaxNodes is the most global nodes a machine may have: the registry
// stores each word's owner as an int16, so node ids run up to
// math.MaxInt16 (2,048 devices of noc.Nodes nodes).
const MaxNodes = math.MaxInt16 + 1

// memOwner is MemoryOwner as a registry entry.
const memOwner = int16(MemoryOwner)

// blockLines is how many consecutive bank-local lines share one
// registry block, and so one entry of the bank's index.
const blockLines = 16

// row is one line's registry entry: the line, its words in place in the
// backing image (nil until the line is resident), and each word's
// owner, a global node id or memOwner.
type row struct {
	line  mem.Line
	data  *[mem.WordsPerLine]uint32
	owner [mem.WordsPerLine]int16
}

// block holds the rows of blockLines consecutive bank-local lines. It
// is allocated whole when the first of them is fetched and never moves.
type block [blockLines]row

// Bank is one L2 bank plus its slice of the registry.
//
// Line data lives in the shared backing image, which the bank reads
// and writes in place: every line has exactly one home bank, so the
// image doubles as the L2 data array. The bank's own per-line state is
// residency and the registry, kept in rows (see block). Workload
// footprints are dense arrays, so nearly every row of a block is
// resident and one index entry serves a block's lines. Residency is
// what makes a line's first access pay the DRAM fetch.
type Bank struct {
	Node noc.NodeID

	eng     *sim.Engine
	mesh    noc.Sender
	backing *mem.Backing
	st      *stats.Stats
	meter   *energy.Meter

	// topo is the machine geometry (who homes which line, how many
	// nodes exist); defaults to the single-device geometry.
	topo topology.Desc
	// fwd is the reusable per-owner forward-mask scratch, one entry per
	// global node; cleared at the start of each use. Owners are global
	// NodeIDs, so in a multi-device machine the registry naturally
	// records cross-device owners and forwards route over the
	// interconnect without any bank-level special case.
	fwd []mem.WordMask

	// index maps a block number (topo.BankLine / blockLines) to the
	// block's position in blocks, which are in first-fetch order.
	index  wordmap.Map[int32]
	blocks []*block

	// fetching maps lines with an in-flight DRAM fetch to the pooled
	// fetch record carrying the work queued behind the fetch.
	fetching  wordmap.Map[*fetchTask]
	fetchFree sim.FreeList[fetchTask]

	busy     sim.Time // bank pipeline occupancy
	dramBusy sim.Time // memory port occupancy

	// pool recycles coherence messages (see coherence.MsgPool for the
	// ownership discipline); taskFree recycles process-task payloads.
	pool     coherence.MsgPool
	taskFree sim.FreeList[procTask]

	// rec, when non-nil, receives L2* events on track b.Node.
	rec *obs.Recorder
}

// procTask is the pooled payload of a deferred bank access: process msg
// once the line is resident and the bank pipeline slot arrives.
type procTask struct {
	b   *Bank
	msg *coherence.Msg
}

// Run processes the message, frees the message into the bank's pool,
// and returns itself to the task free list.
func (t *procTask) Run() {
	b, msg := t.b, t.msg
	t.msg = nil
	b.taskFree.Put(t)
	b.process(msg)
	b.pool.Put(msg)
}

func (b *Bank) newTask(msg *coherence.Msg) *procTask {
	t := b.taskFree.Get()
	t.b, t.msg = b, msg
	return t
}

// New returns a bank for the given node, assuming the single-device
// geometry; multi-device machines follow up with SetTopology.
func New(node noc.NodeID, eng *sim.Engine, mesh noc.Sender, backing *mem.Backing, st *stats.Stats, meter *energy.Meter) *Bank {
	b := &Bank{
		Node:    node,
		eng:     eng,
		mesh:    mesh,
		backing: backing,
		st:      st,
		meter:   meter,
	}
	b.SetTopology(topology.Single())
	return b
}

// SetTopology installs the machine geometry (call before simulation).
// It panics if the machine has more than MaxNodes nodes.
func (b *Bank) SetTopology(topo topology.Desc) {
	n := topo.TotalNodes()
	if n > MaxNodes {
		panic(fmt.Sprintf("l2: %d nodes, more than the registry's %d owner ids", n, MaxNodes))
	}
	b.topo = topo
	b.fwd = make([]mem.WordMask, n)
}

// fetchTask is the pooled payload of a DRAM fetch completion: install
// the line, then run the accesses queued behind the fetch.
type fetchTask struct {
	b       *Bank
	l       mem.Line
	waiters []*procTask
}

func (t *fetchTask) Run() {
	b, l := t.b, t.l
	b.install(l)
	b.fetching.Delete(uint64(l))
	for i, w := range t.waiters {
		t.waiters[i] = nil
		w.Run()
	}
	t.waiters = t.waiters[:0]
	b.fetchFree.Put(t)
}

func (b *Bank) newFetch(l mem.Line) *fetchTask {
	t := b.fetchFree.Get()
	t.b, t.l = b, l
	return t
}

// SetRecorder installs an obs recorder (nil to disable) and names this
// bank's track.
func (b *Bank) SetRecorder(rec *obs.Recorder) {
	b.rec = rec
	rec.NameTrack(obs.DomainL2, int32(b.Node), fmt.Sprintf("bank-%02d", int(b.Node)))
}

// HomeNode returns the node whose bank homes the given line in the
// single-device geometry. Topology-aware callers (anything that can
// run with Devices > 1) must use topology.Desc.HomeNode instead, which
// this equals for one device.
func HomeNode(l mem.Line) noc.NodeID { return topology.Single().HomeNode(l) }

// Deliver implements noc.Handler.
func (b *Bank) Deliver(p noc.Packet) {
	msg, ok := p.(*coherence.Msg)
	if !ok {
		panic(fmt.Sprintf("l2: non-coherence packet %T", p))
	}
	if b.topo.HomeNode(msg.Line) != b.Node {
		panic(fmt.Sprintf("l2: %v for %v delivered to wrong bank %d", msg.Kind, msg.Line, b.Node))
	}
	occ := sim.Time(coherence.L2OccupancyCycles)
	if msg.Kind == coherence.AtomicReq {
		occ = coherence.L2AtomicOccupancyCycles
	}
	start := b.eng.Now()
	if b.busy > start {
		start = b.busy
	}
	b.busy = start + occ
	b.meter.L2Access(1)
	serviceAt := start + coherence.L2AccessCycles
	b.withLine(msg.Line, serviceAt, b.newTask(msg))
}

// withLine runs task at time at (or later) with the line resident,
// inserting a DRAM fetch for cold lines and coalescing concurrent
// fetches for the same line.
func (b *Bank) withLine(l mem.Line, at sim.Time, task *procTask) {
	if b.lookup(l) != nil {
		b.eng.AtTask(at, task)
		return
	}
	if ft, inFlight := b.fetching.Get(uint64(l)); inFlight {
		ft.waiters = append(ft.waiters, task)
		return
	}
	ft := b.newFetch(l)
	ft.waiters = append(ft.waiters, task)
	b.fetching.Put(uint64(l), ft)
	b.st.IncKey(kL2DramFetches, 1)
	b.meter.DRAMAccess(1)
	start := at
	if b.dramBusy > start {
		start = b.dramBusy
	}
	b.dramBusy = start + coherence.DRAMOccupancyCycles
	b.eng.AtTask(start+coherence.DRAMCycles, ft)
}

// lookup returns the row of a resident line, or nil.
func (b *Bank) lookup(l mem.Line) *row {
	local := b.topo.BankLine(l)
	i, ok := b.index.Get(local / blockLines)
	if !ok {
		return nil
	}
	r := &b.blocks[i][local%blockLines]
	if r.data == nil {
		return nil
	}
	return r
}

// install makes the line resident: its row, allocating the row's block
// on the block's first fetch, points at the line's words in the backing
// image and has every word owned by memory.
func (b *Bank) install(l mem.Line) {
	local := b.topo.BankLine(l)
	i, ok := b.index.Get(local / blockLines)
	if !ok {
		i = int32(len(b.blocks))
		b.blocks = append(b.blocks, new(block))
		b.index.Put(local/blockLines, i)
	}
	r := &b.blocks[i][local%blockLines]
	r.line, r.data = l, (*[mem.WordsPerLine]uint32)(b.backing.LineWords(l))
	for w := range r.owner {
		r.owner[w] = memOwner
	}
}

// row returns the row of a resident line.
func (b *Bank) row(l mem.Line) *row {
	r := b.lookup(l)
	if r == nil {
		panic(fmt.Sprintf("l2: line %v processed before fetch", l))
	}
	return r
}

// eachRow calls fn for every resident line's row, in block order.
func (b *Bank) eachRow(fn func(r *row)) {
	for _, blk := range b.blocks {
		for i := range blk {
			if blk[i].data != nil {
				fn(&blk[i])
			}
		}
	}
}

func (b *Bank) process(msg *coherence.Msg) {
	switch msg.Kind {
	case coherence.ReadReq:
		b.read(msg)
	case coherence.WriteThrough:
		b.writeThrough(msg)
	case coherence.RegReq:
		b.register(msg)
	case coherence.WriteBack:
		b.writeBack(msg)
	case coherence.AtomicReq:
		b.atomic(msg)
	default:
		panic(fmt.Sprintf("l2: unexpected message kind %v", msg.Kind))
	}
}

// read serves the words the bank owns and forwards demanded words that
// are registered to an L1 (DeNovo's remote L1 hit path; never taken by
// the GPU protocol, whose registry is always empty).
func (b *Bank) read(msg *coherence.Msg) {
	if b.rec != nil {
		b.rec.Emit(obs.L2Read, int32(b.Node), uint64(msg.Line))
	}
	r := b.row(msg.Line)
	var have mem.WordMask
	for i := 0; i < mem.WordsPerLine; i++ {
		if r.owner[i] == memOwner {
			have |= mem.Bit(i)
		}
	}
	// Forward only demanded words; respond with every word we hold
	// (line-granularity transfer of the useful words). Owners are mesh
	// nodes, so a per-node mask scratch replaces a per-request map.
	fwd := b.fwd
	for i := range fwd {
		fwd[i] = 0
	}
	for i := 0; i < mem.WordsPerLine; i++ {
		if msg.Mask.Has(i) && r.owner[i] != memOwner {
			fwd[r.owner[i]] |= mem.Bit(i)
		}
	}
	if have != 0 {
		b.mesh.Send(b.pool.NewMsg(&coherence.Msg{
			Kind: coherence.ReadResp, Src: b.Node, Dst: msg.Src, Port: noc.PortL1,
			Line: msg.Line, Mask: have, Data: *r.data, ID: msg.ID,
		}))
	}
	// Deterministic iteration: owners in global node order.
	for dst := noc.NodeID(0); int(dst) < len(fwd); dst++ {
		m := fwd[dst]
		if m == 0 {
			continue
		}
		b.st.IncKey(kL2ReadForwards, 1)
		if b.rec != nil {
			b.rec.Emit(obs.L2ReadForward, int32(b.Node), uint64(msg.Line))
		}
		b.mesh.Send(b.pool.NewMsg(&coherence.Msg{
			Kind: coherence.ReadFwd, Src: b.Node, Dst: dst, Port: noc.PortL1,
			Line: msg.Line, Mask: m, Requester: msg.Src, ID: msg.ID,
		}))
	}
}

func (b *Bank) writeThrough(msg *coherence.Msg) {
	if b.rec != nil {
		b.rec.Emit(obs.L2WriteThrough, int32(b.Node), uint64(msg.Line))
	}
	data := b.row(msg.Line).data
	for i := 0; i < mem.WordsPerLine; i++ {
		if msg.Mask.Has(i) {
			data[i] = msg.Data[i]
		}
	}
	b.st.IncKey(kL2Writethroughs, 1)
	b.mesh.Send(b.pool.NewMsg(&coherence.Msg{
		Kind: coherence.WriteThroughAck, Src: b.Node, Dst: msg.Src, Port: noc.PortL1,
		Line: msg.Line, Mask: msg.Mask, ID: msg.ID,
	}))
}

// register implements the DeNovo registry: every requested word's
// ownership moves to the requester immediately, in arrival order
// (DeNovoSync0). Words the bank owned are granted with their data;
// words registered elsewhere produce a forward to the previous owner,
// which will pass data directly to the requester — under contention
// this chains into the distributed queue.
func (b *Bank) register(msg *coherence.Msg) {
	if b.rec != nil {
		b.rec.Emit(obs.L2Registration, int32(b.Node), uint64(msg.Line))
	}
	r := b.row(msg.Line)
	src := int16(msg.Src)
	var grant mem.WordMask
	fwd := b.fwd
	for i := range fwd {
		fwd[i] = 0
	}
	for i := 0; i < mem.WordsPerLine; i++ {
		if !msg.Mask.Has(i) {
			continue
		}
		prev := r.owner[i]
		switch prev {
		case memOwner, src:
			grant |= mem.Bit(i)
		default:
			fwd[prev] |= mem.Bit(i)
		}
		r.owner[i] = src
	}
	if grant != 0 {
		b.mesh.Send(b.pool.NewMsg(&coherence.Msg{
			Kind: coherence.RegAck, Src: b.Node, Dst: msg.Src, Port: noc.PortL1,
			Line: msg.Line, Mask: grant, Data: *r.data, Sync: msg.Sync, NeedsData: msg.NeedsData, ID: msg.ID,
		}))
	}
	for dst := noc.NodeID(0); int(dst) < len(fwd); dst++ {
		m := fwd[dst]
		if m == 0 {
			continue
		}
		b.st.IncKey(kL2RegForwards, 1)
		if b.rec != nil {
			b.rec.Emit(obs.L2RegForward, int32(b.Node), uint64(msg.Line))
		}
		b.mesh.Send(b.pool.NewMsg(&coherence.Msg{
			Kind: coherence.RegFwd, Src: b.Node, Dst: dst, Port: noc.PortL1,
			Line: msg.Line, Mask: m, Requester: msg.Src, Sync: msg.Sync, NeedsData: msg.NeedsData, ID: msg.ID,
		}))
	}
}

// writeBack accepts evicted registered words if the evictor still owns
// them; words whose ownership has already moved on are rejected, and
// the WBAccepted mask tells the evictor which is which.
func (b *Bank) writeBack(msg *coherence.Msg) {
	if b.rec != nil {
		b.rec.Emit(obs.L2WriteBack, int32(b.Node), uint64(msg.Line))
	}
	r := b.row(msg.Line)
	var accepted mem.WordMask
	for i := 0; i < mem.WordsPerLine; i++ {
		if !msg.Mask.Has(i) {
			continue
		}
		if r.owner[i] == int16(msg.Src) {
			r.owner[i] = memOwner
			r.data[i] = msg.Data[i]
			accepted |= mem.Bit(i)
		} else {
			b.st.IncKey(kL2StaleWritebacks, 1)
		}
	}
	b.mesh.Send(b.pool.NewMsg(&coherence.Msg{
		Kind: coherence.WriteBackAck, Src: b.Node, Dst: msg.Src, Port: noc.PortL1,
		Line: msg.Line, Mask: msg.Mask, WBAccepted: accepted, ID: msg.ID,
	}))
}

func (b *Bank) atomic(msg *coherence.Msg) {
	if b.rec != nil {
		b.rec.Emit(obs.L2Atomic, int32(b.Node), uint64(msg.Line))
	}
	r := b.row(msg.Line)
	i := msg.WordIdx
	if r.owner[i] != memOwner {
		panic(fmt.Sprintf("l2: remote atomic on registered word %v[%d] (protocol mixing bug)", msg.Line, i))
	}
	next, ret := msg.Op.Apply(r.data[i], msg.Operand, msg.Operand2)
	r.data[i] = next
	b.st.IncKey(kL2Atomics, 1)
	b.mesh.Send(b.pool.NewMsg(&coherence.Msg{
		Kind: coherence.AtomicResp, Src: b.Node, Dst: msg.Src, Port: noc.PortL1,
		Line: msg.Line, WordIdx: i, Result: ret, ID: msg.ID,
	}))
}

// Functional access helpers used by the host (CPU) between kernels and
// by verification. They are not timed.

// PeekOwner returns the registered owner of a word, or MemoryOwner.
func (b *Bank) PeekOwner(w mem.Word) noc.NodeID {
	if r := b.lookup(w.LineOf()); r != nil {
		return noc.NodeID(r.owner[w.Index()])
	}
	return MemoryOwner
}

// PeekData returns the bank's copy of a word: the backing image, whether
// the line is resident or cold.
func (b *Bank) PeekData(w mem.Word) uint32 { return b.backing.Read(w) }

// PokeData sets the bank's copy of a word (host writes between kernels).
// It panics if the word is registered to an L1 — the host must recall it
// first (machine.HostWrite handles that).
func (b *Bank) PokeData(w mem.Word, v uint32) {
	if b.PeekOwner(w) != MemoryOwner {
		panic(fmt.Sprintf("l2: host write to registered %v", w))
	}
	b.backing.Write(w, v)
}

// Recall functionally returns ownership of one word to memory with the
// given up-to-date value (host access between kernels). Not timed.
func (b *Bank) Recall(w mem.Word, val uint32) {
	if r := b.lookup(w.LineOf()); r != nil {
		r.owner[w.Index()] = memOwner
	}
	b.backing.Write(w, val)
}

// ForEachRegistered visits every word currently registered to an L1
// (invariant checking). Iteration order is unspecified; callers must
// not depend on it.
func (b *Bank) ForEachRegistered(fn func(w mem.Word, owner noc.NodeID)) {
	b.eachRow(func(r *row) {
		for i, o := range r.owner {
			if o != memOwner {
				fn(r.line.Word(i), noc.NodeID(o))
			}
		}
	})
}

// RecallAll functionally returns ownership of all words registered to
// the given node back to memory with the supplied data reader (used at
// teardown and by host access between kernels). It is not timed.
func (b *Bank) RecallAll(node noc.NodeID, read func(w mem.Word) uint32) int {
	n := 0
	b.eachRow(func(r *row) {
		for i, o := range r.owner {
			if noc.NodeID(o) == node {
				r.data[i] = read(r.line.Word(i))
				r.owner[i] = memOwner
				n++
			}
		}
	})
	return n
}
