// Package gpu models a GPU compute unit (CU): resident thread blocks
// sharing the CU's L1, SIMT lockstep execution with per-warp memory
// coalescing, a scratchpad, and the consistency-model orchestration
// around synchronization accesses.
//
// Thread blocks execute as coroutines: each runs its kernel body under
// an iter.Pull coroutine whose yields hand requests to the CU, so
// exactly one control flow is ever runnable and the simulation stays
// deterministic. The CU resumes a block by writing the response to the
// block's last memory operation into its response buffer and switching
// back in; the switch returns the block's next request (kernel code
// between operations is pure computation). The direct coroutine switch
// replaces an earlier unbuffered-channel handshake — same rendezvous
// points, but without waking the goroutine scheduler, which measures
// roughly 4x cheaper per handoff.
//
// A spin loop (workload.Spin, sent by Ctx.SpinAtomic) is one request
// however many attempts it takes: the CU re-issues a failed attempt
// itself, on the event schedule the kernel-side retry loop made, and
// switches back into the block only with the value that passed.
package gpu

import (
	"iter"

	"denovogpu/internal/coherence"
	"denovogpu/internal/consistency"
	"denovogpu/internal/energy"
	"denovogpu/internal/mem"
	"denovogpu/internal/noc"
	"denovogpu/internal/obs"
	"denovogpu/internal/sim"
	"denovogpu/internal/stats"
	"denovogpu/internal/wordmap"
	"denovogpu/internal/workload"
)

// Interned counter keys: hot-path counting indexes an array
// instead of hashing the name per event (see stats.Intern).
var (
	kCuComputeCycles   = stats.Intern("cu.compute_cycles")
	kCuLineAccesses    = stats.Intern("cu.line_accesses")
	kCuMemInstrs       = stats.Intern("cu.mem_instrs")
	kCuScratchAccesses = stats.Intern("cu.scratch_accesses")
	kCuSyncInstrs      = stats.Intern("cu.sync_instrs")
	kCuTbsFinished     = stats.Intern("cu.tbs_finished")
	kCuTbsStarted      = stats.Intern("cu.tbs_started")
	kCuWaitCycles      = stats.Intern("cu.wait_cycles")
)

// WarpSize is the SIMT width.
const WarpSize = 32

type reqKind int

const (
	reqVec reqKind = iota
	reqAtomic
	reqSpin
	reqCompute
	reqWait
	reqScratch
	reqDone
)

// Pending (deferred) timing-only operations. Compute/Wait/Scratch need
// no data from the CU, so the block does not rendezvous for them: it
// banks ONE such op locally and piggybacks it on the next request,
// halving the goroutine handoffs of compute/sync-alternating kernels.
// The CU charges the banked op at the time its request arrives and
// defers handling by its cycles — the same instants, event schedule
// and sequence numbers the eager rendezvous produced. Only one op may
// bank (a second timing op flushes through the old rendezvous path):
// collapsing a chain into one deferral would merge engine events and
// reshuffle sequence numbers, which the golden reports would see.
const (
	pendNone uint8 = iota
	pendCompute
	pendWait
	pendScratch
)

type request struct {
	kind reqKind

	loads     []mem.Addr
	stores    []mem.Addr
	storeVals []uint32
	loadDst   []uint32 // the block's buffer for the loaded values

	// at is the synchronization access of reqAtomic, and for reqSpin
	// also its exit test and the timing of a failed attempt; order is
	// the access's memory order.
	at    workload.Spin
	order coherence.Order

	cycles int

	// Piggybacked timing op (see pendNone); consumed by CU.handle
	// before the request proper.
	preKind   uint8
	preCycles int
}

type response struct {
	atomicOld uint32
}

// tbState is one resident thread block. reqBuf/respBuf are the
// reusable request/response records exchanged across the coroutine
// boundary: the handshake is fully synchronous (the block never issues
// a new request before receiving the response to its last one), so one
// buffer of each per block suffices and the per-operation allocations
// disappear. States (with their embedded kernel context) are pooled per
// CU and recycled across thread blocks and kernels; the iter.Pull
// coroutine is the only per-launch cost that remains.
type tbState struct {
	index   int
	threads int
	reqBuf  request
	respBuf response
	ctx     workload.Ctx
	kernel  workload.Kernel
	// Coroutine plumbing: yield is the block-side handoff installed by
	// seq; next/stop are the CU-side handles from iter.Pull, created per
	// kernel launch and released in finishTB (stop lets seq return so
	// the coroutine exits instead of leaking suspended).
	yield func(*request) bool
	next  func() (*request, bool)
	stop  func()
	// seqFn is the bound method value for seq, created once per pooled
	// state so each launch's iter.Pull doesn't allocate a fresh closure.
	seqFn func(func(*request) bool)
	// Banked timing-only op, flushed with the next send (see pendNone).
	pendKind   uint8
	pendCycles int
	// started flips on the block's first send. The first timing op is
	// never banked: a block becomes resident at its first timed
	// operation, and banking it would let the kernel prologue run
	// before the block counts as resident.
	started bool
}

// seq is the coroutine body: it executes the kernel and yields requests
// to the CU via send. Nothing runs until the CU's first next() call.
func (tb *tbState) seq(yield func(*request) bool) {
	tb.yield = yield
	tb.kernel(&tb.ctx)
	tb.reqBuf = request{kind: reqDone}
	tb.send()
}

// send transfers reqBuf — already filled by the caller except for the
// piggybacked timing op, which it flushes — to the CU. When it
// returns, the CU has switched back in and any response is in respBuf.
// Callers fill reqBuf in place rather than passing a request by value:
// the struct is large enough that the extra copy showed up as duffcopy
// in the access-path profile.
func (tb *tbState) send() {
	tb.reqBuf.preKind, tb.reqBuf.preCycles = tb.pendKind, tb.pendCycles
	tb.pendKind, tb.pendCycles = pendNone, 0
	tb.started = true
	tb.yield(&tb.reqBuf)
}

// tbExec implements workload.Executor from inside the block's goroutine.
type tbExec struct{ tb *tbState }

func (e tbExec) Vec(loads []mem.Addr, stores []mem.Addr, storeVals []uint32, dst []uint32) {
	rq := &e.tb.reqBuf
	rq.kind = reqVec
	rq.loads, rq.stores, rq.storeVals, rq.loadDst = loads, stores, storeVals, dst
	e.tb.send()
}

func (e tbExec) Atomic(op coherence.AtomicOp, a mem.Addr, o1, o2 uint32, order coherence.Order, scope coherence.Scope) uint32 {
	rq := &e.tb.reqBuf
	rq.kind = reqAtomic
	rq.at.Op, rq.at.Addr, rq.at.Operand, rq.at.Operand2, rq.at.Scope = op, a, o1, o2, scope
	rq.order = order
	e.tb.send()
	return e.tb.respBuf.atomicOld
}

// Spin sends the whole spin once: the CU retries failed attempts
// itself (see CU.retrySpin) and resumes the block only with the value
// that passed.
func (e tbExec) Spin(s workload.Spin) (uint32, int) {
	rq := &e.tb.reqBuf
	rq.kind, rq.at, rq.order = reqSpin, s, s.Order()
	e.tb.send()
	return e.tb.respBuf.atomicOld, rq.at.Delay
}

func (e tbExec) Compute(n int) {
	if n <= 0 {
		return
	}
	if e.tb.started && e.tb.pendKind == pendNone {
		e.tb.pendKind, e.tb.pendCycles = pendCompute, n
		return
	}
	e.tb.reqBuf.kind, e.tb.reqBuf.cycles = reqCompute, n
	e.tb.send()
}

func (e tbExec) Wait(n int) {
	if n <= 0 {
		return
	}
	if e.tb.started && e.tb.pendKind == pendNone {
		e.tb.pendKind, e.tb.pendCycles = pendWait, n
		return
	}
	e.tb.reqBuf.kind, e.tb.reqBuf.cycles = reqWait, n
	e.tb.send()
}

func (e tbExec) Scratch(n int) {
	if n <= 0 {
		return
	}
	if e.tb.started && e.tb.pendKind == pendNone {
		e.tb.pendKind, e.tb.pendCycles = pendScratch, n
		return
	}
	e.tb.reqBuf.kind, e.tb.reqBuf.cycles = reqScratch, n
	e.tb.send()
}

// CU is one compute unit.
type CU struct {
	Node noc.NodeID
	// Index is the CU's contiguous worker index 0..totalCUs-1 across
	// the whole machine — what workload kernels see as ctx.CU. It
	// equals int(Node) on a single-device machine, but diverges with
	// multiple devices because global node numbering skips each
	// device's gateway node (device d's CUs are nodes d*16..d*16+14 but
	// indices d*15..d*15+14).
	Index int

	eng   *sim.Engine
	l1    coherence.L1
	model consistency.Model
	st    *stats.Stats
	meter *energy.Meter

	maxResident int
	resident    int
	queue       []*tbState

	nextIssue   sim.Time // L1 port: one line access issued per cycle
	activeStart sim.Time
	onAllDone   func() // fires when the CU's queue drains and resident = 0

	kernelTBsLeft int

	// Free lists for the per-operation state that used to dominate the
	// simulator's allocation profile: vector-op records, per-access
	// issue tasks, atomic-op records, plain resume events, and thread
	// block states. All are recycled within this (single-threaded) CU.
	vecFree    sim.FreeList[vecOp]
	accessFree sim.FreeList[accessTask]
	atomFree   sim.FreeList[atomicOp]
	resumeFree sim.FreeList[resumeTask]
	deferFree  sim.FreeList[deferTask]
	tbFree     sim.FreeList[tbState]

	// rec, when non-nil, receives StallMem/StallSync spans on track Node:
	// one span per vector memory instruction / synchronization access,
	// from issue to completion.
	rec *obs.Recorder
}

// New returns a CU at the given node using the given L1. The worker
// index defaults to the node number (the single-device identity);
// multi-device machines set Index explicitly after construction.
func New(node noc.NodeID, eng *sim.Engine, l1 coherence.L1, model consistency.Model, st *stats.Stats, meter *energy.Meter, maxResident int) *CU {
	cu := &CU{Node: node, Index: int(node), eng: eng, model: model, st: st, meter: meter, maxResident: maxResident}
	cu.SetL1(l1)
	return cu
}

// L1 exposes the CU's L1 controller.
func (cu *CU) L1() coherence.L1 { return cu.l1 }

// SetL1 swaps the CU onto a different L1 controller. Only legal while
// the CU is quiescent (no resident blocks, no in-flight accesses) —
// the machine calls it at a phase-transition drain between kernels.
func (cu *CU) SetL1(l1 coherence.L1) { cu.l1 = l1 }

// SetModel swaps the CU's consistency model alongside SetL1, under the
// same quiescence requirement.
func (cu *CU) SetModel(model consistency.Model) { cu.model = model }

// SetRecorder installs an obs recorder (nil to disable).
func (cu *CU) SetRecorder(rec *obs.Recorder) { cu.rec = rec }

// StartKernel enqueues the CU's share of a kernel's thread blocks and
// begins executing them (up to maxResident concurrently). onAllDone
// fires when every enqueued block has finished. The caller is
// responsible for the kernel-boundary acquire/release.
func (cu *CU) StartKernel(k workload.Kernel, tbIndices []int, threadsPerTB, numTBs, numCUs int, onAllDone func()) {
	cu.onAllDone = onAllDone
	cu.kernelTBsLeft = len(tbIndices)
	if len(tbIndices) == 0 {
		done := cu.onAllDone
		cu.onAllDone = nil
		cu.eng.Schedule(0, done)
		return
	}
	if cu.resident == 0 {
		cu.activeStart = cu.eng.Now()
	}
	for _, idx := range tbIndices {
		tb := cu.newTB()
		tb.index, tb.threads, tb.kernel = idx, threadsPerTB, k
		tb.ctx.TB, tb.ctx.NumTBs, tb.ctx.Threads = idx, numTBs, threadsPerTB
		tb.ctx.CU, tb.ctx.NumCUs = cu.Index, numCUs
		cu.queue = append(cu.queue, tb)
		// The coroutine is lazy: nothing runs until fillResident's first
		// next() call, so launching here costs only the Pull setup.
		tb.next, tb.stop = iter.Pull(tb.seqFn)
	}
	cu.eng.Schedule(0, cu.fillResident)
}

// newTB returns a recycled (or fresh) thread block state. Recycling is
// safe because a block's goroutine touches nothing after sending
// reqDone, so once finishTB has received it the state is free.
func (cu *CU) newTB() *tbState {
	tb := cu.tbFree.Get()
	if tb.seqFn == nil {
		tb.ctx.Ex = tbExec{tb: tb}
		tb.seqFn = tb.seq
	}
	return tb
}

func (cu *CU) fillResident() {
	for cu.resident < cu.maxResident && len(cu.queue) > 0 {
		tb := cu.queue[0]
		cu.queue = cu.queue[1:]
		cu.resident++
		cu.st.IncKey(kCuTbsStarted, 1)
		// First switch into the coroutine: runs the kernel body up to
		// its first request.
		cu.receive(tb)
	}
}

// receive switches into the thread block's coroutine until it yields
// its next request, then handles it. The block always either yields a
// request or reqDone, so this never hangs.
func (cu *CU) receive(tb *tbState) {
	rq, ok := tb.next()
	if !ok {
		return
	}
	cu.handle(tb, rq)
}

// resume delivers a response to the block and receives its next
// request. The response travels through the block's reusable buffer:
// the coroutine switch in receive returns control to the block, which
// reads the buffer before yielding anything further, so the buffer is
// free again by the time the next resume runs.
func (cu *CU) resume(tb *tbState, r response) {
	tb.respBuf = r
	cu.receive(tb)
}

func (cu *CU) handle(tb *tbState, rq *request) {
	if rq.preKind != pendNone {
		// Charge the piggybacked timing op now (the instant its eager
		// rendezvous would have been received) and handle the request
		// proper once its cycles have elapsed — the instant the eager
		// resume would have delivered it.
		d := sim.Time(rq.preCycles)
		switch rq.preKind {
		case pendCompute:
			cu.meter.Instr(rq.preCycles * cu.warps(tb))
			cu.st.IncKey(kCuComputeCycles, uint64(rq.preCycles))
		case pendWait:
			cu.st.IncKey(kCuWaitCycles, uint64(rq.preCycles))
		case pendScratch:
			cu.meter.Scratch(rq.preCycles * tb.threads)
			cu.st.IncKey(kCuScratchAccesses, uint64(rq.preCycles*tb.threads))
		}
		rq.preKind, rq.preCycles = pendNone, 0
		cu.scheduleDefer(d, tb, rq)
		return
	}
	switch rq.kind {
	case reqDone:
		cu.finishTB(tb)
	case reqCompute:
		cu.meter.Instr(rq.cycles * cu.warps(tb))
		cu.st.IncKey(kCuComputeCycles, uint64(rq.cycles))
		cu.scheduleResume(sim.Time(rq.cycles), tb)
	case reqWait:
		// Idle wait: the warp is descheduled; time passes without
		// instruction energy.
		cu.st.IncKey(kCuWaitCycles, uint64(rq.cycles))
		cu.scheduleResume(sim.Time(rq.cycles), tb)
	case reqScratch:
		cu.meter.Scratch(rq.cycles * tb.threads)
		cu.st.IncKey(kCuScratchAccesses, uint64(rq.cycles*tb.threads))
		cu.scheduleResume(sim.Time(rq.cycles), tb)
	case reqVec:
		cu.vec(tb, rq)
	case reqAtomic, reqSpin:
		cu.atomic(tb, rq)
	}
}

func (cu *CU) warps(tb *tbState) int { return (tb.threads + WarpSize - 1) / WarpSize }

func (cu *CU) finishTB(tb *tbState) {
	// The coroutine is suspended in its final yield (reqDone); stop
	// makes that yield return false, letting seq return and the
	// coroutine exit before the state is pooled.
	tb.stop()
	tb.next, tb.stop, tb.yield = nil, nil, nil
	tb.kernel = nil
	tb.started = false
	cu.tbFree.Put(tb)
	cu.resident--
	cu.kernelTBsLeft--
	cu.st.IncKey(kCuTbsFinished, 1)
	if cu.resident == 0 && len(cu.queue) == 0 {
		cu.meter.ActiveCycles(uint64(cu.eng.Now() - cu.activeStart))
		if cu.kernelTBsLeft == 0 && cu.onAllDone != nil {
			done := cu.onAllDone
			cu.onAllDone = nil
			done()
		}
		return
	}
	cu.fillResident()
}

// laneRef records that a load lane receives word `word` of its line.
type laneRef struct {
	word int32
	lane int32
}

// lineAccess is one coalesced L1 access.
type lineAccess struct {
	line  mem.Line
	key   uint64       // warp<<48 ^ line: coalescing identity
	need  mem.WordMask // loads
	wmask mem.WordMask // stores
	data  [mem.WordsPerLine]uint32
	lanes []laneRef // load lanes and the word each receives
}

// scanThreshold is the access count beyond which coalescing switches
// from a linear key scan to an indexed lookup. Well-coalesced warps
// (the common case) stay under it and never touch a hash table.
const scanThreshold = 16

// vecOp is the pooled state of one in-flight vector memory
// instruction: its coalesced accesses, the completion countdown, and
// the block's buffer the loaded values are written into. finishFn is
// bound once when the record is first allocated, so completing an
// access never allocates a closure. loadVals belongs to the block
// (Ctx.Load passes a scratch word, LoadInto the kernel's own buffer),
// so the record only borrows it until the instruction retires; the
// kernel resumes only after that, free to reuse the buffer.
type vecOp struct {
	cu        *CU
	tb        *tbState
	accesses  []lineAccess
	idx       wordmap.Map[int32]
	indexed   bool
	loadVals  []uint32
	remaining int
	start     uint64
	finishFn  func()
}

func (cu *CU) newVecOp(tb *tbState) *vecOp {
	op := cu.vecFree.Get()
	if op.finishFn == nil {
		op.finishFn = op.finish
	}
	op.cu, op.tb = cu, tb
	return op
}

func (cu *CU) freeVecOp(op *vecOp) {
	op.tb, op.loadVals = nil, nil
	cu.vecFree.Put(op)
}

// coalesce groups the operation's lane addresses into per-warp line
// accesses, exactly one access per distinct line per warp, in
// first-touch order, reusing the record's access and lane storage
// (this path used to be the simulator's largest allocation site).
func (op *vecOp) coalesce(rq *request) {
	op.accesses = op.accesses[:0]
	op.indexed = false
	for lane, a := range rq.loads {
		la := op.access(lane/WarpSize, a.LineOf())
		la.need |= mem.Bit(a.WordIndex())
		la.lanes = append(la.lanes, laneRef{word: int32(a.WordIndex()), lane: int32(lane)})
	}
	for lane, a := range rq.stores {
		la := op.access(lane/WarpSize, a.LineOf())
		la.wmask |= mem.Bit(a.WordIndex())
		la.data[a.WordIndex()] = rq.storeVals[lane]
	}
}

// access returns the coalescing group for (warp, line), creating it if
// new. The returned pointer is valid only until the next access call.
func (op *vecOp) access(warp int, l mem.Line) *lineAccess {
	key := uint64(warp)<<48 ^ uint64(l)
	if op.indexed {
		if i, ok := op.idx.Get(key); ok {
			return &op.accesses[i]
		}
	} else {
		for i := range op.accesses {
			if op.accesses[i].key == key {
				return &op.accesses[i]
			}
		}
		if len(op.accesses) >= scanThreshold {
			op.idx.Reset()
			for i := range op.accesses {
				op.idx.Put(op.accesses[i].key, int32(i))
			}
			op.indexed = true
		}
	}
	i := len(op.accesses)
	if i < cap(op.accesses) {
		// Recycle the slot in place, keeping its lane buffer.
		op.accesses = op.accesses[:i+1]
		la := &op.accesses[i]
		la.line, la.key, la.need, la.wmask = l, key, 0, 0
		la.lanes = la.lanes[:0]
		la.data = [mem.WordsPerLine]uint32{}
	} else {
		op.accesses = append(op.accesses, lineAccess{line: l, key: key})
	}
	if op.indexed {
		op.idx.Put(key, int32(i))
	}
	return &op.accesses[i]
}

// finish retires one access; the last one resumes the block.
func (op *vecOp) finish() {
	op.remaining--
	if op.remaining != 0 {
		return
	}
	cu, tb := op.cu, op.tb
	if cu.rec != nil {
		cu.rec.EmitSpan(obs.StallMem, int32(cu.Node), uint64(len(op.accesses)), op.start)
	}
	cu.freeVecOp(op)
	cu.resume(tb, response{})
}

// coalesce is the standalone form the unit tests exercise.
func coalesce(rq *request) []lineAccess {
	var op vecOp
	op.coalesce(rq)
	return op.accesses
}

// accessTask is the pooled payload of one scheduled line access.
// readCb is bound once at allocation so issuing a load allocates no
// callback closure; the task stays out of the free list while its
// read callback is outstanding.
type accessTask struct {
	cu     *CU
	op     *vecOp
	idx    int32
	readCb func([mem.WordsPerLine]uint32)
}

func (cu *CU) scheduleAccess(at sim.Time, op *vecOp, idx int32) {
	t := cu.accessFree.Get()
	if t.readCb == nil {
		t.readCb = t.onRead
	}
	t.cu, t.op, t.idx = cu, op, idx
	cu.eng.AtTask(at, t)
}

func (t *accessTask) release() {
	t.op = nil
	t.cu.accessFree.Put(t)
}

// Run issues the access. Loads (and lane-mixed accesses, which issue
// the store after the load returns) keep the task alive until onRead;
// pure stores complete through the op's finish callback directly.
func (t *accessTask) Run() {
	la := &t.op.accesses[t.idx]
	if la.need != 0 {
		t.cu.l1.ReadLine(la.line, la.need, t.readCb)
		return
	}
	cu, op := t.cu, t.op
	line, wmask, data := la.line, la.wmask, la.data
	t.release()
	cu.l1.WriteLine(line, wmask, data, op.finishFn)
}

func (t *accessTask) onRead(vals [mem.WordsPerLine]uint32) {
	cu, op := t.cu, t.op
	la := &op.accesses[t.idx]
	la.scatter(vals, op.loadVals)
	line, wmask, data := la.line, la.wmask, la.data
	t.release()
	if wmask != 0 {
		// A lane-mixed access (loads and stores to one line in one
		// instruction) issues the store after the load.
		cu.l1.WriteLine(line, wmask, data, op.finishFn)
		return
	}
	op.finishFn()
}

// resumeTask is the pooled payload of a plain delayed resume
// (compute/wait/scratch timing, zero-access vector ops).
type resumeTask struct {
	cu *CU
	tb *tbState
}

func (t *resumeTask) Run() {
	cu, tb := t.cu, t.tb
	t.tb = nil
	cu.resumeFree.Put(t)
	cu.resume(tb, response{})
}

func (cu *CU) scheduleResume(d sim.Time, tb *tbState) {
	t := cu.resumeFree.Get()
	t.cu, t.tb = cu, tb
	cu.eng.ScheduleTask(d, t)
}

// deferTask is the pooled payload of a deferred request: the handling
// of a request that rode in behind a banked timing op (see pendNone).
type deferTask struct {
	cu *CU
	tb *tbState
	rq *request
}

func (t *deferTask) Run() {
	cu, tb, rq := t.cu, t.tb, t.rq
	t.tb, t.rq = nil, nil
	cu.deferFree.Put(t)
	cu.handle(tb, rq)
}

func (cu *CU) scheduleDefer(d sim.Time, tb *tbState, rq *request) {
	t := cu.deferFree.Get()
	t.cu, t.tb, t.rq = cu, tb, rq
	cu.eng.ScheduleTask(d, t)
}

// vec issues the coalesced accesses of one vector memory instruction,
// one per cycle through the L1 port, and resumes the block when all
// complete.
func (cu *CU) vec(tb *tbState, rq *request) {
	op := cu.newVecOp(tb)
	op.coalesce(rq)
	nWarps := 0
	if len(rq.loads) > 0 {
		nWarps += (len(rq.loads) + WarpSize - 1) / WarpSize
	}
	if len(rq.stores) > 0 {
		nWarps += (len(rq.stores) + WarpSize - 1) / WarpSize
	}
	if nWarps == 0 {
		nWarps = 1
	}
	cu.meter.Instr(nWarps)
	cu.st.IncKey(kCuMemInstrs, 1)
	cu.st.IncKey(kCuLineAccesses, uint64(len(op.accesses)))
	if len(op.accesses) == 0 {
		cu.freeVecOp(op)
		cu.scheduleResume(1, tb)
		return
	}
	op.loadVals = rq.loadDst
	op.remaining = len(op.accesses)
	op.start = uint64(cu.eng.Now())
	for i := range op.accesses {
		at := cu.eng.Now()
		if cu.nextIssue > at {
			at = cu.nextIssue
		}
		cu.nextIssue = at + 1
		cu.scheduleAccess(at, op, int32(i))
	}
}

func (la *lineAccess) scatter(vals [mem.WordsPerLine]uint32, loadVals []uint32) {
	for _, r := range la.lanes {
		loadVals[r.lane] = vals[r.word]
	}
}

// atomicOp is the pooled state of one in-flight synchronization
// access. performFn/doneFn are bound once at allocation. Holding the
// request pointer is safe: it is the block's reusable request buffer,
// which stays untouched until the response resumes the block.
type atomicOp struct {
	cu        *CU
	tb        *tbState
	rq        *request
	scope     coherence.Scope
	start     uint64
	performFn func()
	doneFn    func(uint32)
}

func (op *atomicOp) perform() {
	at := &op.rq.at
	op.cu.l1.Atomic(at.Op, at.Addr.WordOf(), at.Operand, at.Operand2, op.scope, op.doneFn)
}

func (op *atomicOp) done(old uint32) {
	cu, tb, rq := op.cu, op.tb, op.rq
	if rq.order.Acquires() {
		cu.l1.Acquire(op.scope)
	}
	if cu.rec != nil {
		cu.rec.EmitSpan(obs.StallSync, int32(cu.Node), uint64(rq.at.Addr.WordOf()), op.start)
	}
	op.tb, op.rq = nil, nil
	cu.atomFree.Put(op)
	if rq.kind == reqSpin && !rq.at.Pass(old) {
		cu.retrySpin(tb, rq)
		return
	}
	cu.resume(tb, response{atomicOld: old})
}

// retrySpin spends a failed spin attempt and re-issues the atomic, on
// the schedule the kernel-side loop "for !pass(atomic()) { Compute(c);
// Wait(d) }" makes. There the block wakes, banks Compute(c) and sends
// Wait(d) with it: Compute is charged now and handled c cycles later,
// when the wait is counted and the block resumed d cycles after that to
// send the atomic again. Here the wait rides in the request as a banked
// op, so the same deferral (handle, then scheduleDefer) counts it and
// re-issues the atomic: the same instants, charges and events, with no
// switch into the block. A zero step schedules nothing, as Compute(0)
// and Wait(0) bank nothing.
func (cu *CU) retrySpin(tb *tbState, rq *request) {
	if rq.at.Delay > 0 {
		rq.preKind, rq.preCycles = pendWait, rq.at.Delay
	}
	rq.at.BackOff()
	if c := rq.at.Compute; c > 0 {
		cu.meter.Instr(c * cu.warps(tb))
		cu.st.IncKey(kCuComputeCycles, uint64(c))
		cu.scheduleDefer(sim.Time(c), tb, rq)
		return
	}
	cu.handle(tb, rq)
}

// atomic wraps a synchronization access in the consistency model's
// program-order requirement: prior writes complete before a release;
// the acquire's invalidation happens before subsequent accesses issue.
func (cu *CU) atomic(tb *tbState, rq *request) {
	scope := cu.model.Effective(rq.at.Scope)
	cu.meter.Instr(1)
	cu.st.IncKey(kCuSyncInstrs, 1)
	op := cu.atomFree.Get()
	if op.performFn == nil {
		op.performFn, op.doneFn = op.perform, op.done
	}
	op.cu, op.tb, op.rq, op.scope, op.start = cu, tb, rq, scope, uint64(cu.eng.Now())
	if rq.order.Releases() {
		cu.l1.Release(scope, op.performFn)
	} else {
		op.perform()
	}
}
