// Package denovo implements the DeNovo hybrid coherence protocol at the
// L1, extended to GPUs as the paper proposes:
//
//   - Three word-granularity states (Invalid / Valid / Registered) with
//     no transient states: every mutation is synchronous; only
//     completions are delayed.
//   - Writes obtain ownership (registration) at the L2 registry; owned
//     words are never self-invalidated, so written data is reused
//     across synchronization boundaries.
//   - Synchronization reads and writes both register (DeNovoSync0), so
//     sync variables with temporal locality hit in the L1; racy
//     registrations are served in arrival order at the registry,
//     forwarding to the previous owner and forming a distributed queue.
//     Requests from thread blocks on the same CU coalesce in the MSHR
//     and are serviced before any queued remote request.
//   - Acquires self-invalidate only non-Registered words; the optional
//     read-only region optimization (DD+RO) also spares Valid words in
//     a software-identified read-only region.
//   - The HRF variant (DH) skips invalidation/flush for local scopes
//     and delays ownership for locally scoped synchronization and, when
//     lazy-write mode is on, for data writes.
package denovo

import (
	"fmt"

	"denovogpu/internal/cache"
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
	kL1FillsDroppedStale     = stats.Intern("l1.fills_dropped_stale")
	kL1FillsLate             = stats.Intern("l1.fills_late")
	kL1FlashInvalidations    = stats.Intern("l1.flash_invalidations")
	kL1FwdDeferred           = stats.Intern("l1.fwd_deferred")
	kL1InvalidatedWords      = stats.Intern("l1.invalidated_words")
	kL1OwnershipTransfers    = stats.Intern("l1.ownership_transfers")
	kL1OwnershipWords        = stats.Intern("l1.ownership_words")
	kL1ReadHits              = stats.Intern("l1.read_hits")
	kL1ReadMisses            = stats.Intern("l1.read_misses")
	kL1ReadsDeferred         = stats.Intern("l1.reads_deferred")
	kL1RegRequests           = stats.Intern("l1.reg_requests")
	kL1RemoteReadsServed     = stats.Intern("l1.remote_reads_served")
	kL1SyncCoalesced         = stats.Intern("l1.sync_coalesced")
	kL1SyncHits              = stats.Intern("l1.sync_hits")
	kL1SyncLocal             = stats.Intern("l1.sync_local")
	kL1SyncMisses            = stats.Intern("l1.sync_misses")
	kL1SyncServicedOnArrival = stats.Intern("l1.sync_serviced_on_arrival")
	kL1WriteHits             = stats.Intern("l1.write_hits")
	kL1Writebacks            = stats.Intern("l1.writebacks")
	kSbCoalescedWrites       = stats.Intern("sb.coalesced_writes")
	kSbKickedRegs            = stats.Intern("sb.kicked_regs")
	kSbReleaseDrains         = stats.Intern("sb.release_drains")
	kSbWriteStalls           = stats.Intern("sb.write_stalls")
)

type syncOp struct {
	op       coherence.AtomicOp
	operand  uint32
	operand2 uint32
	cb       func(uint32)
}

// regTxn is an outstanding registration for one word.
type regTxn struct {
	dataWrite   bool // a store-buffer slot is waiting on this
	syncWaiters []syncOp
}

type readWaiter struct {
	need mem.WordMask
	vals [mem.WordsPerLine]uint32
	cb   func([mem.WordsPerLine]uint32)
}

type readTxn struct {
	line      mem.Line
	epoch     uint64
	requested mem.WordMask
	arrived   mem.WordMask
	waiters   []readWaiter
}

type victimWord struct {
	servicedFwd   bool // a forward was already served from the victim copy
	rejectedKnown bool // the registry rejected our writeback for this word
}

// Options configure protocol variants.
type Options struct {
	// ReadOnly, when non-nil, identifies the software-conveyed
	// read-only region: Valid words satisfying it survive acquires
	// (the paper's DD+RO).
	ReadOnly func(mem.Word) bool
	// LazyWrites delays data-write registration until a global release
	// (DH's "delay obtaining ownership for local writes").
	LazyWrites bool
}

// Controller is one CU's (or the CPU's) DeNovo L1.
type Controller struct {
	node  noc.NodeID
	eng   *sim.Engine
	mesh  noc.Sender
	st    *stats.Stats
	meter *energy.Meter
	opts  Options
	// topo locates each line's home registry bank; in a multi-device
	// machine the home may be on another device, in which case the
	// fabric (this controller's Sender) carries the request over the
	// inter-device link — the protocol itself is topology-oblivious.
	topo topology.Desc

	cache  *cache.Cache
	sb     *cache.StoreBuffer // data writes awaiting registration (or delayed, when lazy)
	lazy   wordmap.Map[bool]  // sb slots whose registration is delayed
	victim *cache.VictimBuffer
	vstate wordmap.Map[victimWord]

	// The per-word/per-line transaction tables below are open-addressed
	// (wordmap) rather than builtin maps: they sit on the protocol's
	// hottest paths, and the dense tables reuse their backing storage
	// across the insert/delete churn of transaction lifecycles.
	regs        wordmap.Map[*regTxn]
	deferredFwd wordmap.Map[*coherence.Msg]
	// deferredReads holds forwarded reads that arrived while our own
	// registration was still in flight: the registry has already made
	// this node the owner, but the word's value has not arrived yet.
	deferredReads wordmap.Map[[]*coherence.Msg]
	pendingOwn    wordmap.Map[uint32] // owned words awaiting a cache frame

	reads   wordmap.Map[*readTxn]
	lineTxn wordmap.Map[uint64]

	pins wordmap.Map[int32]

	nextID       uint64
	epoch        uint64
	relWaiters   []*relWaiter
	spaceWaiters []func()

	// pool recycles coherence messages (see coherence.MsgPool); the
	// free lists below recycle event payloads and transaction structs so
	// the steady-state access path allocates nothing.
	pool          coherence.MsgPool
	readDoneFree  sim.FreeList[readDoneTask]
	syncDoneFree  sim.FreeList[syncDoneTask]
	retryFree     sim.FreeList[retryInstallTask]
	regTxnFree    sim.FreeList[regTxn]
	readTxnFree   sim.FreeList[readTxn]
	relWaiterFree sim.FreeList[relWaiter]
	sbFreedT      sbFreedTask

	// faultNoAcqInval makes global acquires no-ops (test-only fault
	// injection; see DisableAcquireInvalidation).
	faultNoAcqInval bool

	// invariants arms the sanitizer's hot-path assertions (see
	// EnableInvariantChecks). Off by default: the guarded checks cost a
	// branch each on the release and space-stall paths.
	invariants bool

	// Release-path scratch, reused across calls so the per-release walk
	// over the store buffer allocates nothing.
	sbScratch []cache.SBEntry
	regBatch  []lineMask

	// rec, when non-nil, receives L1/sync events on track c.node.
	rec *obs.Recorder
}

// lineMask accumulates one line's per-word mask while batching lazy
// registrations at a release.
type lineMask struct {
	line mem.Line
	mask mem.WordMask
}

// relWaiter is a release waiting for the store-buffer entries that
// existed when it was issued. Entries buffered afterwards belong to
// other thread blocks and must not block this release — they will be
// covered by their own block's release (waiting for them can deadlock
// if their block has already finished). Waiters are pooled; pending
// keeps its backing storage across reuse.
type relWaiter struct {
	pending wordmap.Map[bool]
	cb      func()
}

// readDoneTask is the pooled payload of a read-completion event.
type readDoneTask struct {
	c    *Controller
	vals [mem.WordsPerLine]uint32
	cb   func([mem.WordsPerLine]uint32)
}

func (t *readDoneTask) Run() {
	c, cb, vals := t.c, t.cb, t.vals
	t.cb = nil
	c.readDoneFree.Put(t)
	cb(vals)
}

func (c *Controller) scheduleReadDone(d sim.Time, vals [mem.WordsPerLine]uint32, cb func([mem.WordsPerLine]uint32)) {
	t := c.readDoneFree.Get()
	t.c, t.vals, t.cb = c, vals, cb
	c.eng.ScheduleTask(d, t)
}

// syncDoneTask is the pooled payload of a synchronization-completion
// event.
type syncDoneTask struct {
	c   *Controller
	ret uint32
	cb  func(uint32)
}

func (t *syncDoneTask) Run() {
	c, cb, ret := t.c, t.cb, t.ret
	t.cb = nil
	c.syncDoneFree.Put(t)
	cb(ret)
}

func (c *Controller) scheduleSyncDone(d sim.Time, ret uint32, cb func(uint32)) {
	t := c.syncDoneFree.Get()
	t.c, t.ret, t.cb = c, ret, cb
	c.eng.ScheduleTask(d, t)
}

// retryInstallTask is the pooled payload of a frame-retry event.
type retryInstallTask struct {
	c *Controller
	w mem.Word
}

func (t *retryInstallTask) Run() {
	c, w := t.c, t.w
	c.retryFree.Put(t)
	c.retryInstall(w)
}

func (c *Controller) scheduleRetryInstall(d sim.Time, w mem.Word) {
	t := c.retryFree.Get()
	t.c, t.w = c, w
	c.eng.ScheduleTask(d, t)
}

// sbFreedTask wakes stalled writers; one persistent instance per
// controller (Run only drains waiters, so concurrent schedulings of the
// same instance are harmless).
type sbFreedTask struct{ c *Controller }

func (t *sbFreedTask) Run() { t.c.sbFreed() }

// Transaction struct pools: regTxn/readTxn keep their waiter-slice
// capacity across reuse, so steady-state transactions allocate nothing.
// The free functions reset everything else, so a recycled transaction
// from Get reads as new.

func (c *Controller) freeRegTxn(t *regTxn) {
	t.dataWrite = false
	t.syncWaiters = t.syncWaiters[:0]
	c.regTxnFree.Put(t)
}

func (c *Controller) freeReadTxn(t *readTxn) {
	*t = readTxn{waiters: t.waiters[:0]}
	c.readTxnFree.Put(t)
}

// New returns a DeNovo L1 controller attached to the network at node,
// assuming the single-device geometry; multi-device machines follow up
// with SetTopology.
func New(node noc.NodeID, eng *sim.Engine, mesh noc.Network, st *stats.Stats, meter *energy.Meter, l1Bytes, l1Ways, sbEntries int, opts Options) *Controller {
	c := &Controller{
		node: node, eng: eng, mesh: mesh, st: st, meter: meter, opts: opts,
		topo:   topology.Single(),
		cache:  cache.New(l1Bytes, l1Ways, cache.Keep{Owned: true, ReadOnly: opts.ReadOnly}),
		sb:     cache.NewStoreBuffer(sbEntries),
		victim: cache.NewVictimBuffer(),
	}
	c.sbFreedT.c = c
	mesh.Attach(node, noc.PortL1, c)
	return c
}

// SetTopology installs the machine geometry (call before simulation).
func (c *Controller) SetTopology(topo topology.Desc) { c.topo = topo }

// home returns the node whose L2 bank is the line's registry home.
func (c *Controller) home(l mem.Line) noc.NodeID { return c.topo.HomeNode(l) }

var _ coherence.L1 = (*Controller)(nil)

// SetRecorder installs an obs recorder (nil to disable) for this L1 and
// its store buffer; events land on track c.node in the CU domain.
func (c *Controller) SetRecorder(rec *obs.Recorder) {
	c.rec = rec
	c.sb.SetRecorder(rec, int32(c.node))
}

// MSHROccupancy returns the number of outstanding miss/registration
// transactions (the obs sampler's l1.mshr gauge).
func (c *Controller) MSHROccupancy() int { return c.reads.Len() + c.regs.Len() }

// OutstandingRegistrations returns the number of in-flight registration
// transactions (the obs sampler's l1.out_regs gauge).
func (c *Controller) OutstandingRegistrations() int { return c.regs.Len() }

// pin management: lines with outstanding transactions must not be
// evicted.

func (c *Controller) pin(l mem.Line) {
	(*c.pins.Upsert(uint64(l)))++
	if e := c.cache.Peek(l); e != nil {
		e.Pinned = true
	}
}

func (c *Controller) unpin(l mem.Line) {
	if p, ok := c.pins.Ptr(uint64(l)); ok {
		*p--
		if *p > 0 {
			return
		}
	}
	c.pins.Delete(uint64(l))
	if e := c.cache.Peek(l); e != nil {
		e.Pinned = false
	}
}

// frame returns a cache frame for line l, evicting (with writeback of
// registered words) if needed. Returns nil when every candidate is
// pinned; callers must cope (retry or deliver without installing).
func (c *Controller) frame(l mem.Line) *cache.Entry {
	e := c.cache.Victim(l)
	if e == nil {
		return nil
	}
	if e.Tag && e.Line == l {
		return e
	}
	if e.Tag {
		c.evict(e)
	}
	e.Reset(l)
	n, _ := c.pins.Get(uint64(l))
	e.Pinned = n > 0
	return e
}

// evict writes back the frame's registered words and moves them to the
// victim buffer until the registry acknowledges.
func (c *Controller) evict(e *cache.Entry) {
	reg := e.MaskOf(cache.Registered)
	if reg == 0 {
		return
	}
	c.st.IncKey(kL1Writebacks, 1)
	if c.rec != nil {
		c.rec.Emit(obs.L1Writeback, int32(c.node), uint64(e.Line))
	}
	for i := 0; i < mem.WordsPerLine; i++ {
		if reg.Has(i) {
			w := e.Line.Word(i)
			c.victim.Put(w, e.Data[i])
			c.vstate.Put(uint64(w), victimWord{})
		}
	}
	c.mesh.Send(c.pool.NewMsg(&coherence.Msg{
		Kind: coherence.WriteBack, Src: c.node, Dst: c.home(e.Line), Port: noc.PortL2,
		Line: e.Line, Mask: reg, Data: e.Data,
	}))
}

// ReadLine implements coherence.L1.
func (c *Controller) ReadLine(l mem.Line, need mem.WordMask, cb func([mem.WordsPerLine]uint32)) {
	c.meter.L1Access(1)
	var vals [mem.WordsPerLine]uint32
	entry := c.cache.Lookup(l)
	missing := need &^ c.sb.LookupLine(l, need, &vals)
	for i := 0; i < mem.WordsPerLine; i++ {
		if !missing.Has(i) {
			continue
		}
		if v, ok := c.pendingOwn.Get(uint64(l.Word(i))); ok {
			vals[i] = v
			missing &^= mem.Bit(i)
			continue
		}
		if entry != nil && entry.State[i] != cache.Invalid {
			vals[i] = entry.Data[i]
			missing &^= mem.Bit(i)
		}
	}
	if missing == 0 {
		c.st.IncKey(kL1ReadHits, 1)
		if c.rec != nil {
			c.rec.Emit(obs.L1ReadHit, int32(c.node), uint64(l))
		}
		c.scheduleReadDone(coherence.L1HitCycles, vals, cb)
		return
	}
	c.st.IncKey(kL1ReadMisses, 1)
	if c.rec != nil {
		c.rec.Emit(obs.L1ReadMiss, int32(c.node), uint64(l))
	}
	c.meter.L1Tag(1)
	var txn *readTxn
	if id, ok := c.lineTxn.Get(uint64(l)); ok {
		// Join only current-epoch transactions that have not already
		// received any of our demanded words (an already-arrived word
		// would never be re-sent, and it may not have been installed).
		if t, _ := c.reads.Get(id); t != nil && t.epoch == c.epoch && missing&t.arrived == 0 {
			txn = t
			if extra := missing &^ t.requested; extra != 0 {
				// A joining reader demands words the original request did
				// not cover (they may be registered remotely and need a
				// forward); issue a supplementary request under the same
				// transaction.
				t.requested |= extra
				c.mesh.Send(c.pool.NewMsg(&coherence.Msg{
					Kind: coherence.ReadReq, Src: c.node, Dst: c.home(l), Port: noc.PortL2,
					Line: l, Mask: extra, ID: id,
				}))
			}
		}
	}
	if txn == nil {
		c.nextID++
		txn = c.readTxnFree.Get()
		txn.line, txn.epoch, txn.requested = l, c.epoch, missing
		c.reads.Put(c.nextID, txn)
		c.lineTxn.Put(uint64(l), c.nextID)
		c.pin(l)
		c.mesh.Send(c.pool.NewMsg(&coherence.Msg{
			Kind: coherence.ReadReq, Src: c.node, Dst: c.home(l), Port: noc.PortL2,
			Line: l, Mask: missing, ID: c.nextID,
		}))
	}
	txn.waiters = append(txn.waiters, readWaiter{need: missing, vals: vals, cb: cb})
}

// WriteLine implements coherence.L1. Writes to Registered words hit in
// place; others are buffered in the store buffer until their
// registration completes (eager) or until a global release (lazy, DH).
// A full buffer stalls the write until an acknowledgment frees a slot —
// cheaper than the GPU protocol's forced writethrough, as the paper
// notes for TB_LG.
func (c *Controller) WriteLine(l mem.Line, mask mem.WordMask, data [mem.WordsPerLine]uint32, cb func()) {
	c.meter.L1Access(1)
	c.writeRun(l, mask, data, 0, cb)
}

// writeRun is WriteLine's work loop starting at word index `from`. The
// common (no-stall) case runs to completion without creating any
// closure; only a full store buffer defers, capturing the resume point
// in a single closure.
func (c *Controller) writeRun(l mem.Line, mask mem.WordMask, data [mem.WordsPerLine]uint32, from int, cb func()) {
	entry := c.cache.Peek(l)
	var newReg mem.WordMask
	for i := from; i < mem.WordsPerLine; i++ {
		if !mask.Has(i) {
			continue
		}
		w := l.Word(i)
		if entry != nil && entry.State[i] == cache.Registered {
			entry.Data[i] = data[i]
			c.st.IncKey(kL1WriteHits, 1)
			if c.rec != nil {
				c.rec.Emit(obs.L1WriteHit, int32(c.node), uint64(w))
			}
			continue
		}
		if p, ok := c.pendingOwn.Ptr(uint64(w)); ok {
			*p = data[i]
			c.st.IncKey(kL1WriteHits, 1)
			if c.rec != nil {
				c.rec.Emit(obs.L1WriteHit, int32(c.node), uint64(w))
			}
			continue
		}
		if _, ok := c.sb.Lookup(w); ok {
			c.sb.Insert(w, data[i])
			c.st.IncKey(kSbCoalescedWrites, 1)
			continue
		}
		if txn, _ := c.regs.Get(uint64(w)); txn != nil {
			// A sync registration for this word is already in
			// flight; ride it rather than double-registering.
			if !c.sb.Full() {
				c.meter.StoreBuffer(1)
				c.sb.Insert(w, data[i])
				txn.dataWrite = true
				continue
			}
		}
		if c.sb.Full() {
			if newReg != 0 {
				c.sendRegReq(l, newReg, false, false)
			}
			resumeAt := i
			c.stallForSpace(func() { c.writeRun(l, mask, data, resumeAt, cb) })
			return
		}
		c.meter.StoreBuffer(1)
		c.sb.Insert(w, data[i])
		if c.opts.LazyWrites {
			c.lazy.Put(uint64(w), true)
		} else {
			txn := c.regTxnFree.Get()
			txn.dataWrite = true
			c.regs.Put(uint64(w), txn)
			c.pin(l)
			newReg |= mem.Bit(i)
		}
	}
	if newReg != 0 {
		c.sendRegReq(l, newReg, false, false)
	}
	c.eng.Schedule(coherence.L1HitCycles, cb)
}

// stallForSpace queues fn until a store-buffer slot frees; in lazy mode
// it kicks off registration of the oldest delayed slot so space will
// eventually appear.
func (c *Controller) stallForSpace(fn func()) {
	c.st.IncKey(kSbWriteStalls, 1)
	c.kickOldestLazy()
	c.spaceWaiters = append(c.spaceWaiters, fn)
}

// kickOldestLazy starts registration of the oldest delayed slot so a
// stalled writer will eventually get space (lazy mode only; in eager
// mode every slot already has its registration in flight).
func (c *Controller) kickOldestLazy() {
	if !c.opts.LazyWrites {
		return
	}
	if oldest, ok := c.sb.PeekOldest(); ok && c.lazy.Has(uint64(oldest.Word)) {
		c.st.IncKey(kSbKickedRegs, 1)
		c.lazy.Delete(uint64(oldest.Word))
		if c.invariants && c.regs.Has(uint64(oldest.Word)) {
			panic(fmt.Sprintf("denovo: lazy-reg-exclusive: node %d kicked delayed %v over its in-flight registration", c.node, oldest.Word))
		}
		txn := c.regTxnFree.Get()
		txn.dataWrite = true
		c.regs.Put(uint64(oldest.Word), txn)
		c.pin(oldest.Word.LineOf())
		c.sendRegReq(oldest.Word.LineOf(), mem.Bit(oldest.Word.Index()), false, false)
	}
}

func (c *Controller) sendRegReq(l mem.Line, mask mem.WordMask, sync, needsData bool) {
	c.st.IncKey(kL1RegRequests, 1)
	c.mesh.Send(c.pool.NewMsg(&coherence.Msg{
		Kind: coherence.RegReq, Src: c.node, Dst: c.home(l), Port: noc.PortL2,
		Line: l, Mask: mask, Sync: sync, NeedsData: needsData,
	}))
}

// Atomic implements coherence.L1: DeNovoSync0 registers synchronization
// reads and writes; once a CU owns the sync variable, all thread blocks
// on that CU hit locally until ownership moves. Locally scoped
// synchronization (DH) executes at the L1 without eager ownership.
func (c *Controller) Atomic(op coherence.AtomicOp, w mem.Word, operand, operand2 uint32, scope coherence.Scope, cb func(uint32)) {
	if scope == coherence.ScopeLocal && c.opts.LazyWrites {
		// Fully lazy local synchronization (the delayed-ownership
		// variant): perform at the L1 on the cached/buffered value and
		// register at the next global release. Under frequent global
		// synchronization the deferred registrations land on the
		// release's critical path, so the default DH registers local
		// sync eagerly instead (below) — the CU-level scope handling
		// already skips the invalidate/flush, which is where DH's win
		// lives.
		c.localAtomic(op, w, operand, operand2, cb)
		return
	}
	l := w.LineOf()
	if e := c.cache.Lookup(l); e != nil && e.State[w.Index()] == cache.Registered && !c.regs.Has(uint64(w)) {
		// Synchronization hit: the variable is owned here.
		next, ret := op.Apply(e.Data[w.Index()], operand, operand2)
		e.Data[w.Index()] = next
		c.st.IncKey(kL1SyncHits, 1)
		if c.rec != nil {
			c.rec.Emit(obs.L1SyncHit, int32(c.node), uint64(w))
		}
		c.meter.L1Access(1)
		c.scheduleSyncDone(coherence.L1HitCycles, ret, cb)
		c.serviceDeferred(w)
		return
	}
	if p, ok := c.pendingOwn.Ptr(uint64(w)); ok && !c.regs.Has(uint64(w)) {
		next, ret := op.Apply(*p, operand, operand2)
		*p = next
		c.st.IncKey(kL1SyncHits, 1)
		if c.rec != nil {
			c.rec.Emit(obs.L1SyncHit, int32(c.node), uint64(w))
		}
		c.scheduleSyncDone(coherence.L1HitCycles, ret, cb)
		return
	}
	txn, _ := c.regs.Get(uint64(w))
	if txn == nil {
		txn = c.regTxnFree.Get()
		if c.opts.LazyWrites && c.lazy.Has(uint64(w)) {
			// A delayed (lazy) slot for this word sits in the store
			// buffer; this registration absorbs it. Leaving the mark
			// would let a release batch (or a space kick) re-register
			// the word, overwriting this transaction — losing its sync
			// waiters and sending a second request whose acknowledgment
			// finds no transaction.
			c.lazy.Delete(uint64(w))
			txn.dataWrite = true
		}
		c.regs.Put(uint64(w), txn)
		c.pin(l)
		c.st.IncKey(kL1SyncMisses, 1)
		if c.rec != nil {
			c.rec.Emit(obs.L1SyncMiss, int32(c.node), uint64(w))
		}
		c.sendRegReq(l, mem.Bit(w.Index()), true, true)
	} else {
		// Same-CU coalescing in the MSHR: another thread block on this
		// CU already has a registration in flight for this word.
		c.st.IncKey(kL1SyncCoalesced, 1)
	}
	txn.syncWaiters = append(txn.syncWaiters, syncOp{op, operand, operand2, cb})
}

// localAtomic (DH) performs a locally scoped synchronization at the L1
// without obtaining ownership: the result is buffered like a lazy write
// and registered at the next global release.
func (c *Controller) localAtomic(op coherence.AtomicOp, w mem.Word, operand, operand2 uint32, cb func(uint32)) {
	l := w.LineOf()
	finish := func(cur uint32) {
		next, ret := op.Apply(cur, operand, operand2)
		c.st.IncKey(kL1SyncLocal, 1)
		c.meter.L1Access(1)
		if e := c.cache.Peek(l); e != nil && e.State[w.Index()] == cache.Registered {
			e.Data[w.Index()] = next
			c.scheduleSyncDone(coherence.L1HitCycles, ret, cb)
			return
		}
		if !op.WritesBack(cur, next) {
			// A pure synchronization read must not become a lazy write:
			// registering the read value at the next release would clobber
			// a concurrent writer's update.
			c.scheduleSyncDone(coherence.L1HitCycles, ret, cb)
			return
		}
		if c.sb.Full() {
			if _, ok := c.sb.Lookup(w); !ok {
				c.stallForSpace(func() { c.localAtomic(op, w, operand, operand2, cb) })
				return
			}
		}
		c.sb.Insert(w, next)
		// Mark delayed only if no registration is already in flight for
		// this slot (a global release may have kicked it); re-marking
		// would double-register and corrupt the transaction state.
		if !c.regs.Has(uint64(w)) {
			c.lazy.Put(uint64(w), true)
		}
		if e := c.cache.Peek(l); e != nil && e.State[w.Index()] == cache.Valid {
			e.Data[w.Index()] = next
		}
		c.scheduleSyncDone(coherence.L1HitCycles, ret, cb)
	}
	if v, ok := c.sb.Lookup(w); ok {
		finish(v)
		return
	}
	if v, ok := c.pendingOwn.Get(uint64(w)); ok {
		finish(v)
		return
	}
	if e := c.cache.Lookup(l); e != nil && e.State[w.Index()] != cache.Invalid {
		finish(e.Data[w.Index()])
		return
	}
	// Miss: fetch the line, then retry from scratch — the retry re-reads
	// through the store buffer and cache so concurrent local atomics to
	// the same word cannot lose updates.
	c.ReadLine(l, mem.Bit(w.Index()), func([mem.WordsPerLine]uint32) {
		c.localAtomic(op, w, operand, operand2, cb)
	})
}

// Acquire implements coherence.L1: DeNovo's selective self-invalidation
// spares Registered (owned, up-to-date) words — the source of its data
// reuse across synchronization points — and, with the read-only
// optimization, Valid words in the read-only region.
func (c *Controller) Acquire(scope coherence.Scope) {
	if scope == coherence.ScopeLocal || c.faultNoAcqInval {
		return
	}
	n := c.cache.Invalidate()
	c.epoch++
	// Flash/selective invalidation is a bulk clear of state bits, not a
	// per-frame tag walk; charge a single tag-array access.
	c.meter.L1Tag(1)
	c.st.IncKey(kL1FlashInvalidations, 1)
	c.st.IncKey(kL1InvalidatedWords, uint64(n))
	if c.rec != nil {
		c.rec.Emit(obs.SyncAcquire, int32(c.node), uint64(n))
	}
}

// ReadOnlyRevoked tells the controller that Options.ReadOnly now
// reports false for words it used to spare, so the next acquire must
// re-examine every cached frame, not only the ones touched since the
// last one.
func (c *Controller) ReadOnlyRevoked() { c.cache.Unsettle() }

// DisableAcquireInvalidation is test-only fault injection: it makes
// globally scoped acquires skip the selective self-invalidation, so
// stale Valid words survive synchronization. The litmus conformance
// harness uses it to verify that it detects consistency violations.
func (c *Controller) DisableAcquireInvalidation() { c.faultNoAcqInval = true }

// EnableInvariantChecks arms the protocol sanitizer
// (machine.Config.Invariants): hot-path assertions panic the moment a
// lazily delayed slot is re-registered over an in-flight transaction
// (the lazy-reg-exclusive invariant; see CheckInvariants for the
// quiesced-state suite). The assertions schedule no events and touch
// no counters, so an armed run stays cycle- and report-identical to an
// unarmed one.
func (c *Controller) EnableInvariantChecks() { c.invariants = true }

// Release implements coherence.L1: a global release completes when
// every buffered write has obtained ownership — no data moves, unlike
// the GPU protocol's writethrough flush. Lazy (DH) slots start their
// registration here. Local releases complete immediately.
func (c *Controller) Release(scope coherence.Scope, cb func()) {
	if scope == coherence.ScopeLocal {
		c.eng.Schedule(coherence.L1HitCycles, cb)
		return
	}
	if c.rec != nil {
		c.rec.Emit(obs.SyncRelease, int32(c.node), uint64(c.sb.Len()))
	}
	if c.lazy.Len() > 0 {
		// Batch delayed registrations by line. The line lookup is a
		// linear scan over the batch built so far — a release covers few
		// distinct lines, and the scan keeps this path allocation-free.
		c.regBatch = c.regBatch[:0]
		c.sbScratch = c.sb.AppendEntries(c.sbScratch[:0])
		for _, e := range c.sbScratch {
			if !c.lazy.Has(uint64(e.Word)) {
				continue
			}
			c.lazy.Delete(uint64(e.Word))
			l := e.Word.LineOf()
			gi := -1
			for i := range c.regBatch {
				if c.regBatch[i].line == l {
					gi = i
					break
				}
			}
			if gi < 0 {
				gi = len(c.regBatch)
				c.regBatch = append(c.regBatch, lineMask{line: l})
			}
			c.regBatch[gi].mask |= mem.Bit(e.Word.Index())
			if c.invariants && c.regs.Has(uint64(e.Word)) {
				panic(fmt.Sprintf("denovo: lazy-reg-exclusive: node %d release batched delayed %v over its in-flight registration", c.node, e.Word))
			}
			txn := c.regTxnFree.Get()
			txn.dataWrite = true
			c.regs.Put(uint64(e.Word), txn)
			c.pin(l)
		}
		for _, lm := range c.regBatch {
			c.sendRegReq(lm.line, lm.mask, false, false)
		}
	}
	entries := c.sb.AppendEntries(c.sbScratch[:0])
	c.sbScratch = entries
	if len(entries) == 0 {
		c.eng.Schedule(coherence.L1HitCycles, cb)
		return
	}
	c.st.IncKey(kSbReleaseDrains, 1)
	w := c.relWaiterFree.Get()
	w.cb = cb
	for _, e := range entries {
		w.pending.Put(uint64(e.Word), true)
	}
	c.relWaiters = append(c.relWaiters, w)
}

// Drained implements coherence.L1.
func (c *Controller) Drained() bool {
	return c.sb.Len() == 0 && c.regs.Len() == 0 && c.reads.Len() == 0 &&
		c.pendingOwn.Len() == 0 && c.victim.Len() == 0
}

// CheckInvariants validates the sanitizer's quiesced-state suite for
// this controller (machine.CheckInvariants calls it after every kernel
// when Config.Invariants is set): the store buffer's structure
// (sb-fifo), every lazy mark backed by a live buffered write
// (lazy-orphan), no word both delayed and mid-registration
// (lazy-reg-exclusive), and the victim buffer's value/state tables in
// step (wb-lost). It only reads state, so armed runs stay
// report-identical to unarmed ones.
func (c *Controller) CheckInvariants() error {
	if err := c.sb.CheckInvariants(); err != nil {
		return fmt.Errorf("node %d: %w", c.node, err)
	}
	if c.lazy.Len() > 0 {
		buffered := make(map[mem.Word]bool, c.sb.Len())
		for _, e := range c.sb.Entries() {
			buffered[e.Word] = true
		}
		var err error
		c.lazy.ForEach(func(k uint64, _ bool) {
			w := mem.Word(k)
			if err != nil {
				return
			}
			if !buffered[w] {
				err = fmt.Errorf("denovo: lazy-orphan: node %d delays %v with no buffered write", c.node, w)
			} else if c.regs.Has(uint64(w)) {
				err = fmt.Errorf("denovo: lazy-reg-exclusive: node %d has %v both delayed and mid-registration", c.node, w)
			}
		})
		if err != nil {
			return err
		}
	}
	if c.victim.Len() != c.vstate.Len() {
		return fmt.Errorf("denovo: wb-lost: node %d victim buffer holds %d values but %d states", c.node, c.victim.Len(), c.vstate.Len())
	}
	return nil
}

// sbFreed services stalled writers after store-buffer slots free.
func (c *Controller) sbFreed() {
	for len(c.spaceWaiters) > 0 && !c.sb.Full() {
		fn := c.spaceWaiters[0]
		c.spaceWaiters = c.spaceWaiters[1:]
		fn()
	}
	// If waiters remain with a full buffer, keep the drain moving: a
	// woken writer that finished (instead of stalling again) must not
	// strand the rest.
	if len(c.spaceWaiters) > 0 && c.sb.Full() {
		c.kickOldestLazy()
	}
}

// notifyReleases tells waiting releases that word w has obtained
// ownership (left the store buffer); a release completes when every
// entry it was issued over is registered.
func (c *Controller) notifyReleases(w mem.Word) {
	remaining := c.relWaiters[:0]
	for _, rw := range c.relWaiters {
		rw.pending.Delete(uint64(w))
		if rw.pending.Len() == 0 {
			cb := rw.cb
			c.eng.Schedule(0, cb)
			rw.cb = nil
			rw.pending.Reset()
			c.relWaiterFree.Put(rw)
		} else {
			remaining = append(remaining, rw)
		}
	}
	c.relWaiters = remaining
}

// Deliver implements noc.Handler.
func (c *Controller) Deliver(p noc.Packet) {
	msg, ok := p.(*coherence.Msg)
	if !ok {
		panic(fmt.Sprintf("denovo: non-coherence packet %T", p))
	}
	switch msg.Kind {
	case coherence.ReadResp:
		c.fill(msg)
	case coherence.ReadFwd:
		c.readFwd(msg)
	case coherence.RegAck:
		c.ownershipArrived(msg.Line, msg.Mask, msg.Data, msg.NeedsData)
	case coherence.RegXfer:
		c.ownershipArrived(msg.Line, msg.Mask, msg.Data, true)
	case coherence.RegFwd:
		c.regFwd(msg)
	case coherence.WriteBackAck:
		c.writeBackAck(msg)
	default:
		panic(fmt.Sprintf("denovo: unexpected message %v", msg.Kind))
	}
	// The message is fully processed (handlers copy anything they defer
	// into pooled messages of their own); recycle it.
	c.pool.Put(msg)
}

// fill handles read data arriving from the L2 bank or a forwarding
// owner L1.
func (c *Controller) fill(msg *coherence.Msg) {
	txn, _ := c.reads.Get(msg.ID)
	if txn == nil {
		// The transaction completed from an earlier response that
		// already covered these words (e.g. a supplementary request
		// raced a generous line response). Nothing to do.
		c.st.IncKey(kL1FillsLate, 1)
		return
	}
	newWords := msg.Mask &^ txn.arrived
	txn.arrived |= msg.Mask
	// Install in cache only while no acquire intervened.
	if txn.epoch == c.epoch && newWords != 0 {
		if e := c.frame(msg.Line); e != nil {
			for i := 0; i < mem.WordsPerLine; i++ {
				if newWords.Has(i) && e.State[i] == cache.Invalid {
					e.Data[i] = msg.Data[i]
					e.State[i] = cache.Valid
				}
			}
			c.cache.Touch(e)
			c.meter.L1Access(1)
		}
	} else if txn.epoch != c.epoch {
		c.st.IncKey(kL1FillsDroppedStale, 1)
	}
	// Complete waiters whose demanded words have all arrived.
	remaining := txn.waiters[:0]
	for _, w := range txn.waiters {
		for i := 0; i < mem.WordsPerLine; i++ {
			if w.need.Has(i) && msg.Mask.Has(i) {
				w.vals[i] = msg.Data[i]
				w.need &^= mem.Bit(i)
			}
		}
		if w.need == 0 {
			c.scheduleReadDone(coherence.L1HitCycles, w.vals, w.cb)
		} else {
			remaining = append(remaining, w)
		}
	}
	txn.waiters = remaining
	if txn.arrived&txn.requested == txn.requested {
		if len(txn.waiters) != 0 {
			panic("denovo: read transaction complete with unsatisfied waiters")
		}
		c.reads.Delete(msg.ID)
		if id, _ := c.lineTxn.Get(uint64(txn.line)); id == msg.ID {
			c.lineTxn.Delete(uint64(txn.line))
		}
		c.unpin(txn.line)
		c.freeReadTxn(txn)
	}
}

// readFwd serves a data read forwarded by the registry for words this
// L1 owns; the response goes directly to the requester (3-hop). A
// forwarded read can outrun the ownership data itself: the registry
// makes this node the owner as soon as it processes the registration
// request, so a read forwarded right after can arrive here before the
// RegAck/RegXfer carrying the value. Such words are deferred and served
// when ownership arrives.
func (c *Controller) readFwd(msg *coherence.Msg) {
	var data [mem.WordsPerLine]uint32
	var now mem.WordMask
	for i := 0; i < mem.WordsPerLine; i++ {
		if !msg.Mask.Has(i) {
			continue
		}
		w := msg.Line.Word(i)
		// Priority matters: a pendingOwn copy (current ownership,
		// awaiting a frame) is newer than any victim-buffer copy left
		// over from an earlier eviction of the same word.
		if e := c.cache.Peek(msg.Line); e != nil && e.State[i] == cache.Registered {
			data[i] = e.Data[i]
		} else if v, ok := c.pendingOwn.Get(uint64(w)); ok {
			data[i] = v
		} else if v, ok := c.victim.Get(w); ok {
			data[i] = v
		} else if c.regs.Has(uint64(w)) {
			m := c.pool.NewMsg(msg)
			m.Mask = mem.Bit(i)
			q := c.deferredReads.Upsert(uint64(w))
			*q = append(*q, m)
			c.st.IncKey(kL1ReadsDeferred, 1)
			continue
		} else {
			panic(fmt.Sprintf("denovo: node %d forwarded read for %v it does not own", c.node, w))
		}
		now |= mem.Bit(i)
	}
	if now == 0 {
		return
	}
	c.st.IncKey(kL1RemoteReadsServed, 1)
	c.meter.L1Access(1)
	c.mesh.Send(c.pool.NewMsg(&coherence.Msg{
		Kind: coherence.ReadResp, Src: c.node, Dst: msg.Requester, Port: noc.PortL1,
		Line: msg.Line, Mask: now, Data: data, ID: msg.ID,
	}))
}

// ownershipArrived handles RegAck (from the registry) and RegXfer (from
// the previous owner): words become Registered here, buffered writes
// drain into the cache, and queued sync operations are serviced — all
// same-CU waiters before any deferred remote request (DeNovoSync0's
// MSHR coalescing).
func (c *Controller) ownershipArrived(l mem.Line, mask mem.WordMask, data [mem.WordsPerLine]uint32, carriesData bool) {
	e := c.frame(l)
	for i := 0; i < mem.WordsPerLine; i++ {
		if !mask.Has(i) {
			continue
		}
		w := l.Word(i)
		// Establish the word's current value.
		var val uint32
		if v, ok := c.sb.Remove(w); ok {
			val = v // our buffered write supersedes any carried value
			// Wake stalled writers after this delivery finishes
			// (zero-delay event) to avoid reentrant state mutation.
			c.eng.ScheduleTask(0, &c.sbFreedT)
			c.notifyReleases(w)
		} else if carriesData {
			val = data[i]
		}
		txn, _ := c.regs.Get(uint64(w))
		if txn == nil {
			panic(fmt.Sprintf("denovo: node %d ownership for %v without transaction", c.node, w))
		}
		c.st.IncKey(kL1OwnershipWords, 1)
		delay := sim.Time(coherence.L1HitCycles)
		for _, op := range txn.syncWaiters {
			next, ret := op.op.Apply(val, op.operand, op.operand2)
			val = next
			c.scheduleSyncDone(delay, ret, op.cb)
			delay++
			c.st.IncKey(kL1SyncServicedOnArrival, 1)
		}
		c.regs.Delete(uint64(w))
		c.unpin(l)
		c.freeRegTxn(txn)
		// Install.
		if e != nil {
			e.Data[i] = val
			e.State[i] = cache.Registered
			c.cache.Touch(e)
		} else {
			c.pendingOwn.Put(uint64(w), val)
			c.scheduleRetryInstall(2, w)
		}
		c.meter.L1Access(1)
		// Reads forwarded while the registration was in flight are served
		// first (the registry ordered them before any later ownership
		// transfer), then the distributed queue passes ownership onward if
		// a remote request was queued behind our own accesses.
		c.serveDeferredReads(w)
		c.serviceDeferred(w)
	}
}

// retryInstall moves a frameless owned word into the cache once a frame
// frees up.
func (c *Controller) retryInstall(w mem.Word) {
	val, ok := c.pendingOwn.Get(uint64(w))
	if !ok {
		return // transferred away meanwhile
	}
	e := c.frame(w.LineOf())
	if e == nil {
		c.scheduleRetryInstall(2, w)
		return
	}
	c.pendingOwn.Delete(uint64(w))
	e.Data[w.Index()] = val
	e.State[w.Index()] = cache.Registered
	c.cache.Touch(e)
	c.serviceDeferred(w)
}

// serveDeferredReads replays forwarded reads that were waiting for this
// word's ownership data to arrive.
func (c *Controller) serveDeferredReads(w mem.Word) {
	msgs, _ := c.deferredReads.Get(uint64(w))
	if len(msgs) == 0 {
		return
	}
	c.deferredReads.Delete(uint64(w))
	for _, m := range msgs {
		c.readFwd(m)
		c.pool.Put(m)
	}
}

// regFwd handles the registry telling us to pass ownership of words to
// a new owner. Words transferable immediately go out as one batched
// RegXfer (whole-line migrations cost one message, like a writethrough
// would); words with our own registration still in flight defer
// per-word into the distributed queue.
func (c *Controller) regFwd(msg *coherence.Msg) {
	var now mem.WordMask
	for i := 0; i < mem.WordsPerLine; i++ {
		if !msg.Mask.Has(i) {
			continue
		}
		w := msg.Line.Word(i)
		if vs, ok := c.vstate.Ptr(uint64(w)); ok && !vs.servicedFwd {
			// This forward targets the ownership we already evicted
			// (the registry had not yet processed our writeback when it
			// forwarded); serve it from the victim copy even if we have
			// a new registration of our own in flight — that new
			// request is ordered *after* this one at the registry.
			now |= mem.Bit(i)
			continue
		}
		if c.regs.Has(uint64(w)) {
			// Our own registration (and coalesced same-CU accesses) are
			// still in flight; the remote request waits its turn in the
			// distributed queue.
			if c.deferredFwd.Has(uint64(w)) {
				panic(fmt.Sprintf("denovo: node %d second deferred forward for %v", c.node, w))
			}
			m := c.pool.NewMsg(msg)
			m.Mask = mem.Bit(i)
			c.deferredFwd.Put(uint64(w), m)
			c.st.IncKey(kL1FwdDeferred, 1)
			continue
		}
		now |= mem.Bit(i)
	}
	if now != 0 {
		c.transferMask(msg.Line, now, msg.Requester, msg.Sync, msg.ID)
	}
}

// transferMask passes ownership and data of a set of words of one line
// to the requester in a single RegXfer.
func (c *Controller) transferMask(l mem.Line, mask mem.WordMask, to noc.NodeID, sync bool, id uint64) {
	var data [mem.WordsPerLine]uint32
	e := c.cache.Peek(l)
	for i := 0; i < mem.WordsPerLine; i++ {
		if !mask.Has(i) {
			continue
		}
		w := l.Word(i)
		// As in readFwd: pendingOwn (current ownership) outranks any
		// stale victim-buffer copy of the same word.
		if e != nil && e.State[i] == cache.Registered {
			data[i] = e.Data[i]
			e.State[i] = cache.Invalid
		} else if v, ok := c.pendingOwn.Get(uint64(w)); ok {
			data[i] = v
			c.pendingOwn.Delete(uint64(w))
		} else if v, ok := c.victim.Get(w); ok {
			data[i] = v
			vs, vok := c.vstate.Ptr(uint64(w))
			if vok && vs.rejectedKnown {
				c.victim.Drop(w)
				c.vstate.Delete(uint64(w))
			} else if vok {
				vs.servicedFwd = true
			}
		} else {
			panic(fmt.Sprintf("denovo: node %d cannot transfer %v it does not own", c.node, w))
		}
		c.st.IncKey(kL1OwnershipTransfers, 1)
	}
	if e != nil {
		e.Prune()
	}
	c.meter.L1Access(1)
	c.mesh.Send(c.pool.NewMsg(&coherence.Msg{
		Kind: coherence.RegXfer, Src: c.node, Dst: to, Port: noc.PortL1,
		Line: l, Mask: mask, Data: data, Sync: sync, ID: id,
	}))
}

// serviceDeferred passes ownership to a queued remote requester once
// local accesses have been serviced.
func (c *Controller) serviceDeferred(w mem.Word) {
	msg, _ := c.deferredFwd.Get(uint64(w))
	if msg == nil || c.regs.Has(uint64(w)) {
		return
	}
	c.deferredFwd.Delete(uint64(w))
	c.transferMask(w.LineOf(), mem.Bit(w.Index()), msg.Requester, msg.Sync, msg.ID)
	c.pool.Put(msg)
}

// writeBackAck resolves victim-buffer entries. Accepted words are done;
// rejected words had their ownership reassigned before our writeback
// arrived, so a forward either already came (serviced from the victim
// copy) or is about to.
func (c *Controller) writeBackAck(msg *coherence.Msg) {
	for i := 0; i < mem.WordsPerLine; i++ {
		if !msg.Mask.Has(i) {
			continue
		}
		w := msg.Line.Word(i)
		vs, ok := c.vstate.Ptr(uint64(w))
		if !ok {
			continue // already fully resolved
		}
		if msg.WBAccepted.Has(i) || vs.servicedFwd {
			c.victim.Drop(w)
			c.vstate.Delete(uint64(w))
		} else {
			vs.rejectedKnown = true
		}
	}
}

// Test and host hooks.

// CacheWordState exposes a word's L1 state.
func (c *Controller) CacheWordState(w mem.Word) cache.WordState {
	if c.pendingOwn.Has(uint64(w)) {
		return cache.Registered
	}
	if e := c.cache.Peek(w.LineOf()); e != nil {
		return e.State[w.Index()]
	}
	return cache.Invalid
}

// PeekWord returns the L1-visible value of a word, for functional host
// reads.
func (c *Controller) PeekWord(w mem.Word) (uint32, bool) {
	if v, ok := c.sb.Lookup(w); ok {
		return v, true
	}
	if v, ok := c.pendingOwn.Get(uint64(w)); ok {
		return v, true
	}
	if e := c.cache.Peek(w.LineOf()); e != nil && e.State[w.Index()] != cache.Invalid {
		return e.Data[w.Index()], true
	}
	if v, ok := c.victim.Get(w); ok {
		return v, true
	}
	return 0, false
}

// StoreBufferLen exposes store-buffer occupancy for tests.
func (c *Controller) StoreBufferLen() int { return c.sb.Len() }

// OwnsWord reports whether this L1 currently holds the word in
// Registered state (or in flight structures) — the L1 side of the
// registry's single-owner invariant.
func (c *Controller) OwnsWord(w mem.Word) bool {
	if e := c.cache.Peek(w.LineOf()); e != nil && e.State[w.Index()] == cache.Registered {
		return true
	}
	if c.pendingOwn.Has(uint64(w)) {
		return true
	}
	if _, ok := c.victim.Get(w); ok {
		return true
	}
	return false
}

// HostInvalidateLine implements coherence.L1.
func (c *Controller) HostInvalidateLine(l mem.Line, mask mem.WordMask) {
	e := c.cache.Peek(l)
	if e == nil {
		return
	}
	for i := 0; i < mem.WordsPerLine; i++ {
		if mask&mem.Bit(i) != 0 && e.State[i] == cache.Valid {
			e.State[i] = cache.Invalid
		}
	}
}

// HostSteal functionally removes this L1's ownership of a word and
// returns its value, for host writes between kernels (the machine
// recalls the word to the registry). It requires a quiesced controller.
func (c *Controller) HostSteal(w mem.Word) (uint32, bool) {
	e := c.cache.Peek(w.LineOf())
	if e == nil || e.State[w.Index()] != cache.Registered {
		return 0, false
	}
	v := e.Data[w.Index()]
	e.State[w.Index()] = cache.Invalid
	return v, true
}

// HostDropClean applies the controller's acquire semantics at a
// phase-transition drain: every word the protocol may not retain
// across a synchronization point becomes Invalid. With the read-only
// optimization, Valid words in the software-conveyed read-only region
// survive — by contract nothing writes them in any phase, so they
// cannot go stale while another protocol set runs. Ownership cannot
// survive (the registry is being emptied), so although it runs
// Acquire's invalidation, which spares Registered words, it requires a
// quiesced controller whose registrations have already been recalled
// (HostSteal per registered word): finding leftover ownership here
// means the registry and this L1 disagree, which the drain must not
// paper over. Returns the number of clean words dropped.
func (c *Controller) HostDropClean() (int, error) {
	if !c.Drained() {
		return 0, fmt.Errorf("denovo: phase-drain: node %d not drained (sb=%d regs=%d reads=%d own=%d victim=%d)",
			c.node, c.sb.Len(), c.regs.Len(), c.reads.Len(), c.pendingOwn.Len(), c.victim.Len())
	}
	if n := c.cache.CountWords(cache.Registered); n != 0 {
		return 0, fmt.Errorf("denovo: phase-drain: node %d still owns %d words after recall", c.node, n)
	}
	return c.cache.Invalidate(), nil
}
