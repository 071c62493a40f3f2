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
	"math/bits"

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
	victim *cache.VictimBuffer

	// lines is the transaction state of every line with any: per-word
	// masks of registrations in flight (and which of them store-buffer
	// slots or sync operations wait on), delayed (lazy) slots, owned
	// words awaiting a frame, forwards and reads deferred behind our
	// own registration, and victim copies' progress; plus the line's
	// pins and current read transaction. Per-word payloads (sync
	// waiters, deferred messages, frameless values) sit in a pooled
	// record held only while a word needs one.
	lines lineTable
	// reads holds the open read transactions by id; several may be
	// open for one line across an acquire (see ReadLine).
	reads wordmap.Map[*readTxn]

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

	// sbScratch is the lazy release's walk over the store buffer in
	// FIFO order, reused across calls so it allocates nothing.
	sbScratch []cache.SBEntry

	// rec, when non-nil, receives L1/sync events on track c.node.
	rec *obs.Recorder
}

// relWaiter is a release waiting for the store-buffer entries that
// existed when it was issued. Entries buffered afterwards belong to
// other thread blocks and must not block this release — they will be
// covered by their own block's release (waiting for them can deadlock
// if their block has already finished). pending maps each line to its
// words still awaited. Waiters are pooled; pending keeps its backing
// storage across reuse.
type relWaiter struct {
	pending wordmap.Map[mem.WordMask]
	cb      func()
	// last is the word whose removal completed the waiter, meaningful
	// only within notifyReleases.
	last int
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

// freeReadTxn recycles a read transaction, keeping its waiter slice's
// capacity, so steady-state reads allocate nothing; everything else is
// reset, so a recycled transaction from Get reads as new.
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

// MSHROccupancy returns the number of outstanding miss transactions
// plus registering words (the obs sampler's l1.mshr gauge).
func (c *Controller) MSHROccupancy() int { return c.reads.Len() + c.lines.regWords }

// OutstandingRegistrations returns the number of words with a
// registration in flight (the obs sampler's l1.out_regs gauge).
func (c *Controller) OutstandingRegistrations() int { return c.lines.regWords }

// pinFrame and unpinFrame mirror a line's pins onto its frame, if
// cached: lines with outstanding transactions must not be evicted.

func (c *Controller) pinFrame(l mem.Line) {
	if e := c.cache.Peek(l); e != nil {
		e.Pinned = true
	}
}

func (c *Controller) unpinFrame(l mem.Line) {
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
	e.Pinned = c.lines.get(l).pins > 0
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
			c.victim.Put(e.Line.Word(i), e.Data[i])
		}
	}
	c.lines.victimPut(c.lines.upsert(e.Line), reg)
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
	var s *lineState
	if missing != 0 && c.lines.ownWords != 0 {
		if s = c.lines.ptr(l); s != nil && missing&s.own != 0 {
			c.lines.ownVals(s, missing&s.own, &vals)
			missing &^= s.own
		}
	}
	if entry != nil {
		for i := 0; i < mem.WordsPerLine; i++ {
			if missing.Has(i) && entry.State[i] != cache.Invalid {
				vals[i] = entry.Data[i]
				missing &^= mem.Bit(i)
			}
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
	if s == nil {
		s = c.lines.ptr(l)
	}
	var txn *readTxn
	if s != nil && s.read != 0 {
		id := s.read
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
		if s == nil {
			s = c.lines.upsert(l)
		}
		c.lines.openRead(s, c.nextID)
		c.pinFrame(l)
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
	s := c.lines.ptr(l)
	var newReg, newLazy, ride mem.WordMask
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
		if s != nil && s.own.Has(i) {
			c.lines.setOwn(s, i, data[i])
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
		if s != nil && s.reg.Has(i) && !c.sb.Full() {
			// A sync registration for this word is already in
			// flight; ride it rather than double-registering.
			c.meter.StoreBuffer(1)
			c.sb.Insert(w, data[i])
			ride |= mem.Bit(i)
			continue
		}
		if c.sb.Full() {
			c.noteWrites(l, newReg, newLazy, ride)
			resumeAt := i
			c.stallForSpace(func() { c.writeRun(l, mask, data, resumeAt, cb) })
			return
		}
		c.meter.StoreBuffer(1)
		c.sb.Insert(w, data[i])
		if c.opts.LazyWrites {
			newLazy |= mem.Bit(i)
		} else {
			newReg |= mem.Bit(i)
		}
	}
	c.noteWrites(l, newReg, newLazy, ride)
	c.eng.Schedule(coherence.L1HitCycles, cb)
}

// noteWrites records the words of line l that writeRun buffered: ride
// joins registrations already in flight, newLazy delays registration
// to a release, and newReg starts registrations with one request.
func (c *Controller) noteWrites(l mem.Line, newReg, newLazy, ride mem.WordMask) {
	if newReg|newLazy|ride == 0 {
		return
	}
	s := c.lines.upsert(l)
	c.lines.ride(s, ride)
	c.lines.delay(s, newLazy)
	if newReg != 0 {
		c.lines.register(s, newReg, newReg)
		c.pinFrame(l)
		c.sendRegReq(l, newReg, false, false)
	}
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
	oldest, ok := c.sb.PeekOldest()
	if !ok {
		return
	}
	l, i := oldest.Word.LineOf(), oldest.Word.Index()
	if s := c.lines.ptr(l); s != nil && s.lazy.Has(i) {
		c.st.IncKey(kSbKickedRegs, 1)
		if c.invariants && s.reg.Has(i) {
			panic(fmt.Sprintf("denovo: lazy-reg-exclusive: node %d kicked delayed %v over its in-flight registration", c.node, oldest.Word))
		}
		c.lines.register(s, mem.Bit(i), 0)
		c.pinFrame(l)
		c.sendRegReq(l, mem.Bit(i), false, false)
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
	l, i := w.LineOf(), w.Index()
	s := c.lines.ptr(l)
	registering := s != nil && s.reg.Has(i)
	if e := c.cache.Lookup(l); e != nil && e.State[i] == cache.Registered && !registering {
		// Synchronization hit: the variable is owned here.
		next, ret := op.Apply(e.Data[i], operand, operand2)
		e.Data[i] = next
		c.st.IncKey(kL1SyncHits, 1)
		if c.rec != nil {
			c.rec.Emit(obs.L1SyncHit, int32(c.node), uint64(w))
		}
		c.meter.L1Access(1)
		c.scheduleSyncDone(coherence.L1HitCycles, ret, cb)
		c.serviceDeferred(l, s, i)
		c.lines.tidy(l, s)
		return
	}
	if s != nil && s.own.Has(i) && !registering {
		next, ret := op.Apply(c.lines.ownVal(s, i), operand, operand2)
		c.lines.setOwn(s, i, next)
		c.st.IncKey(kL1SyncHits, 1)
		if c.rec != nil {
			c.rec.Emit(obs.L1SyncHit, int32(c.node), uint64(w))
		}
		c.scheduleSyncDone(coherence.L1HitCycles, ret, cb)
		return
	}
	if !registering {
		if s == nil {
			s = c.lines.upsert(l)
		}
		// A delayed (lazy) slot for this word sits in the store buffer
		// when s.lazy has it; register absorbs it. Leaving the mark
		// would let a release batch (or a space kick) re-register the
		// word, overwriting this registration — losing its sync waiters
		// and sending a second request whose acknowledgment finds none.
		c.lines.register(s, mem.Bit(i), 0)
		c.pinFrame(l)
		c.st.IncKey(kL1SyncMisses, 1)
		if c.rec != nil {
			c.rec.Emit(obs.L1SyncMiss, int32(c.node), uint64(w))
		}
		c.sendRegReq(l, mem.Bit(i), true, true)
	} else {
		// Same-CU coalescing in the MSHR: another thread block on this
		// CU already has a registration in flight for this word.
		c.st.IncKey(kL1SyncCoalesced, 1)
	}
	c.lines.addSync(s, i, syncOp{op, operand, operand2, cb})
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
		// this slot (a global release may have kicked it), which the
		// slot then rides; re-marking would double-register and corrupt
		// the transaction state.
		s := c.lines.upsert(l)
		if s.reg.Has(w.Index()) {
			c.lines.ride(s, mem.Bit(w.Index()))
		} else {
			c.lines.delay(s, mem.Bit(w.Index()))
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
	if s := c.lines.ptr(l); s != nil && s.own.Has(w.Index()) {
		finish(c.lines.ownVal(s, w.Index()))
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
	if c.lines.lazyWords > 0 {
		// Batch delayed registrations by line, one request per line in
		// the order of each line's oldest delayed slot.
		c.sbScratch = c.sb.AppendEntries(c.sbScratch[:0])
		for _, e := range c.sbScratch {
			l := e.Word.LineOf()
			s := c.lines.ptr(l)
			if s == nil || !s.lazy.Has(e.Word.Index()) {
				continue
			}
			batch := s.lazy
			if c.invariants && s.reg&batch != 0 {
				w := l.Word(lowest(s.reg & batch))
				panic(fmt.Sprintf("denovo: lazy-reg-exclusive: node %d release batched delayed %v over its in-flight registration", c.node, w))
			}
			c.lines.register(s, batch, 0)
			c.pinFrame(l)
			c.sendRegReq(l, batch, false, false)
		}
	}
	if c.sb.Len() == 0 {
		c.eng.Schedule(coherence.L1HitCycles, cb)
		return
	}
	c.st.IncKey(kSbReleaseDrains, 1)
	w := c.relWaiterFree.Get()
	w.cb = cb
	c.sb.ForEachLine(func(l mem.Line, buf mem.WordMask) { w.pending.Put(uint64(l), buf) })
	c.relWaiters = append(c.relWaiters, w)
}

// Drained implements coherence.L1.
func (c *Controller) Drained() bool {
	return c.sb.Len() == 0 && c.lines.regWords == 0 && c.reads.Len() == 0 &&
		c.lines.ownWords == 0 && c.victim.Len() == 0
}

// CheckInvariants validates the sanitizer's quiesced-state suite for
// this controller (machine.CheckInvariants calls it after every kernel
// when Config.Invariants is set): the store buffer's structure
// (sb-fifo); the line table's masks against its records, its pins
// against the registrations and read transactions, and its word counts
// (line-table); every lazy mark backed by a live buffered write
// (lazy-orphan); no word both delayed and mid-registration
// (lazy-reg-exclusive); every buffered word either delayed or waited
// on by its registration (sb-unowned); and the victim buffer's values
// in step with the victim marks (wb-lost). It only reads state, so
// armed runs stay report-identical to unarmed ones.
func (c *Controller) CheckInvariants() error {
	if err := c.sb.CheckInvariants(); err != nil {
		return fmt.Errorf("node %d: %w", c.node, err)
	}
	if err := c.lines.check(); err != nil {
		return fmt.Errorf("denovo: node %d: %w", c.node, err)
	}
	readPins := make(map[mem.Line]int32, c.reads.Len())
	c.reads.ForEach(func(_ uint64, t *readTxn) { readPins[t.line]++ })
	var err error
	victims := 0
	c.lines.index.ForEach(func(k uint64, s lineState) {
		l := mem.Line(k)
		if err != nil {
			return
		}
		victims += s.vic.Count()
		var vals [mem.WordsPerLine]uint32
		switch buffered := c.sb.LookupLine(l, mem.AllWords, &vals); {
		case s.lazy&^buffered != 0:
			err = fmt.Errorf("denovo: lazy-orphan: node %d delays %v with no buffered write", c.node, l.Word(lowest(s.lazy&^buffered)))
		case s.pins != int32(s.reg.Count())+readPins[l]:
			err = fmt.Errorf("denovo: line-table: node %d pins %v %d times for %d registering words and %d reads", c.node, l, s.pins, s.reg.Count(), readPins[l])
		case s.read != 0 && !c.readOf(s.read, l):
			err = fmt.Errorf("denovo: line-table: node %d names read %d for %v, which is not an open read of that line", c.node, s.read, l)
		}
		for m := s.vic; m != 0 && err == nil; m &= m - 1 {
			if _, ok := c.victim.Get(l.Word(lowest(m))); !ok {
				err = fmt.Errorf("denovo: wb-lost: node %d marks %v as a victim copy the victim buffer lacks", c.node, l.Word(lowest(m)))
			}
		}
	})
	c.sb.ForEachLine(func(l mem.Line, buf mem.WordMask) {
		if s := c.lines.get(l); err == nil && buf&^(s.lazy|s.data) != 0 {
			err = fmt.Errorf("denovo: sb-unowned: node %d buffers %v with its registration neither delayed nor in flight", c.node, l.Word(lowest(buf&^(s.lazy|s.data))))
		}
	})
	if err != nil {
		return err
	}
	for l, n := range readPins {
		if c.lines.get(l).pins < n {
			return fmt.Errorf("denovo: line-table: node %d has %d reads of %v open but %d pins", c.node, n, l, c.lines.get(l).pins)
		}
	}
	if c.victim.Len() != victims {
		return fmt.Errorf("denovo: wb-lost: node %d victim buffer holds %d values but marks %d", c.node, c.victim.Len(), victims)
	}
	return nil
}

// readOf reports whether id is an open read transaction of line l.
func (c *Controller) readOf(id uint64, l mem.Line) bool {
	t, ok := c.reads.Get(id)
	return ok && t.line == l
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

// notifyReleases retires the words of line l in got, just removed from
// the store buffer, from every waiting release; a release completes
// when every entry it was issued over has obtained ownership. In word
// order it wakes stalled writers once per word and schedules each
// completed release right after the word that completed it.
func (c *Controller) notifyReleases(l mem.Line, got mem.WordMask) {
	var done mem.WordMask
	for _, rw := range c.relWaiters {
		rw.last = -1
		p, ok := rw.pending.Ptr(uint64(l))
		if !ok || *p&got == 0 {
			continue
		}
		hit := *p & got
		if *p &^= hit; *p != 0 {
			continue
		}
		rw.pending.Delete(uint64(l))
		if rw.pending.Len() == 0 {
			rw.last = mem.WordsPerLine - 1 - bits.LeadingZeros16(uint16(hit))
			done |= mem.Bit(rw.last)
		}
	}
	for m := got; m != 0; m &= m - 1 {
		i := lowest(m)
		// Wake stalled writers after this delivery finishes (zero-delay
		// event) to avoid reentrant state mutation.
		c.eng.ScheduleTask(0, &c.sbFreedT)
		if !done.Has(i) {
			continue
		}
		for _, rw := range c.relWaiters {
			if rw.last == i {
				c.eng.Schedule(0, rw.cb)
			}
		}
	}
	if done == 0 {
		return
	}
	remaining := c.relWaiters[:0]
	for _, rw := range c.relWaiters {
		if rw.last < 0 {
			remaining = append(remaining, rw)
			continue
		}
		rw.cb = nil
		rw.pending.Reset()
		c.relWaiterFree.Put(rw)
	}
	clear(c.relWaiters[len(remaining):])
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
		s := c.lines.ptr(txn.line)
		if c.lines.closeRead(s, msg.ID) == 0 {
			c.unpinFrame(txn.line)
		}
		c.lines.tidy(txn.line, s)
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
	e := c.cache.Peek(msg.Line)
	s := c.lines.ptr(msg.Line)
	for i := 0; i < mem.WordsPerLine; i++ {
		if !msg.Mask.Has(i) {
			continue
		}
		w := msg.Line.Word(i)
		// Priority matters: a frameless owned copy (current ownership,
		// awaiting a frame) is newer than any victim-buffer copy left
		// over from an earlier eviction of the same word.
		if e != nil && e.State[i] == cache.Registered {
			data[i] = e.Data[i]
		} else if s != nil && s.own.Has(i) {
			data[i] = c.lines.ownVal(s, i)
		} else if v, ok := c.victim.Get(w); ok {
			data[i] = v
		} else if s != nil && s.reg.Has(i) {
			m := c.pool.NewMsg(msg)
			m.Mask = mem.Bit(i)
			c.lines.deferRead(s, i, m)
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
	// Our buffered writes supersede any carried value.
	var buffered [mem.WordsPerLine]uint32
	got := c.sb.RemoveLine(l, mask, &buffered)
	if got != 0 {
		c.notifyReleases(l, got)
	}
	s := c.lines.ptr(l)
	if s == nil || mask&^s.reg != 0 {
		var reg mem.WordMask
		if s != nil {
			reg = s.reg
		}
		panic(fmt.Sprintf("denovo: node %d ownership for %v without transaction", c.node, l.Word(lowest(mask&^reg))))
	}
	c.st.IncKey(kL1OwnershipWords, uint64(mask.Count()))
	for i := 0; i < mem.WordsPerLine; i++ {
		if !mask.Has(i) {
			continue
		}
		// Establish the word's current value.
		var val uint32
		if got.Has(i) {
			val = buffered[i]
		} else if carriesData {
			val = data[i]
		}
		delay := sim.Time(coherence.L1HitCycles)
		for _, op := range c.lines.syncOps(s, i) {
			next, ret := op.op.Apply(val, op.operand, op.operand2)
			val = next
			c.scheduleSyncDone(delay, ret, op.cb)
			delay++
			c.st.IncKey(kL1SyncServicedOnArrival, 1)
		}
		if c.lines.arrive(s, i) == 0 {
			c.unpinFrame(l)
		}
		// Install.
		if e != nil {
			e.Data[i] = val
			e.State[i] = cache.Registered
			c.cache.Touch(e)
		} else {
			c.lines.setOwn(s, i, val)
			c.scheduleRetryInstall(2, l.Word(i))
		}
		c.meter.L1Access(1)
		// Reads forwarded while the registration was in flight are served
		// first (the registry ordered them before any later ownership
		// transfer), then the distributed queue passes ownership onward if
		// a remote request was queued behind our own accesses.
		c.serveDeferredReads(s, i)
		c.serviceDeferred(l, s, i)
	}
	c.lines.tidy(l, s)
}

// retryInstall moves a frameless owned word into the cache once a frame
// frees up.
func (c *Controller) retryInstall(w mem.Word) {
	l, i := w.LineOf(), w.Index()
	if s := c.lines.ptr(l); s == nil || !s.own.Has(i) {
		return // transferred away meanwhile
	}
	e := c.frame(l) // an eviction may move line entries: look l up again below
	if e == nil {
		c.scheduleRetryInstall(2, w)
		return
	}
	s := c.lines.ptr(l)
	e.Data[i] = c.lines.dropOwn(s, i)
	e.State[i] = cache.Registered
	c.cache.Touch(e)
	c.serviceDeferred(l, s, i)
	c.lines.tidy(l, s)
}

// serveDeferredReads replays forwarded reads that were waiting for word
// i's ownership data to arrive.
func (c *Controller) serveDeferredReads(s *lineState, i int) {
	for _, m := range c.lines.deferredReads(s, i) {
		c.readFwd(m)
		c.pool.Put(m)
	}
	c.lines.clearReads(s, i)
}

// regFwd handles the registry telling us to pass ownership of words to
// a new owner. Words transferable immediately go out as one batched
// RegXfer (whole-line migrations cost one message, like a writethrough
// would); words with our own registration still in flight defer
// per-word into the distributed queue.
func (c *Controller) regFwd(msg *coherence.Msg) {
	s := c.lines.ptr(msg.Line)
	var now mem.WordMask
	for i := 0; i < mem.WordsPerLine; i++ {
		if !msg.Mask.Has(i) {
			continue
		}
		if s != nil && s.vic.Has(i) && !s.vServed.Has(i) {
			// This forward targets the ownership we already evicted
			// (the registry had not yet processed our writeback when it
			// forwarded); serve it from the victim copy even if we have
			// a new registration of our own in flight — that new
			// request is ordered *after* this one at the registry.
			now |= mem.Bit(i)
			continue
		}
		if s != nil && s.reg.Has(i) {
			// Our own registration (and coalesced same-CU accesses) are
			// still in flight; the remote request waits its turn in the
			// distributed queue.
			if s.fwd.Has(i) {
				panic(fmt.Sprintf("denovo: node %d second deferred forward for %v", c.node, msg.Line.Word(i)))
			}
			m := c.pool.NewMsg(msg)
			m.Mask = mem.Bit(i)
			c.lines.deferFwd(s, i, m)
			c.st.IncKey(kL1FwdDeferred, 1)
			continue
		}
		now |= mem.Bit(i)
	}
	if now != 0 {
		c.transferMask(msg.Line, s, now, msg.Requester, msg.Sync, msg.ID)
	}
	c.lines.tidy(msg.Line, s)
}

// transferMask passes ownership and data of a set of words of line l,
// whose entry is s (nil if none), to the requester in a single RegXfer.
func (c *Controller) transferMask(l mem.Line, s *lineState, mask mem.WordMask, to noc.NodeID, sync bool, id uint64) {
	var data [mem.WordsPerLine]uint32
	e := c.cache.Peek(l)
	for i := 0; i < mem.WordsPerLine; i++ {
		if !mask.Has(i) {
			continue
		}
		w := l.Word(i)
		// As in readFwd: a frameless owned copy (current ownership)
		// outranks any stale victim-buffer copy of the same word.
		if e != nil && e.State[i] == cache.Registered {
			data[i] = e.Data[i]
			e.State[i] = cache.Invalid
		} else if s != nil && s.own.Has(i) {
			data[i] = c.lines.dropOwn(s, i)
		} else if v, ok := c.victim.Get(w); ok {
			data[i] = v
			if s != nil && s.vRejected.Has(i) {
				c.victim.Drop(w)
				c.lines.victimDrop(s, mem.Bit(i))
			} else if s != nil && s.vic.Has(i) {
				c.lines.victimServe(s, mem.Bit(i))
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

// serviceDeferred passes ownership of word i of line l, whose entry is
// s (nil if none), to a queued remote requester once local accesses
// have been serviced.
func (c *Controller) serviceDeferred(l mem.Line, s *lineState, i int) {
	if s == nil || !s.fwd.Has(i) || s.reg.Has(i) {
		return
	}
	msg := c.lines.takeFwd(s, i)
	c.transferMask(l, s, mem.Bit(i), msg.Requester, msg.Sync, msg.ID)
	c.pool.Put(msg)
}

// writeBackAck resolves victim-buffer entries. Accepted words are done;
// rejected words had their ownership reassigned before our writeback
// arrived, so a forward either already came (serviced from the victim
// copy) or is about to.
func (c *Controller) writeBackAck(msg *coherence.Msg) {
	s := c.lines.ptr(msg.Line)
	if s == nil {
		return // already fully resolved
	}
	live := msg.Mask & s.vic
	done := live & (msg.WBAccepted | s.vServed)
	for m := done; m != 0; m &= m - 1 {
		c.victim.Drop(msg.Line.Word(lowest(m)))
	}
	c.lines.victimDrop(s, done)
	c.lines.victimReject(s, live&^done)
	c.lines.tidy(msg.Line, s)
}

// Test and host hooks.

// CacheWordState exposes a word's L1 state.
func (c *Controller) CacheWordState(w mem.Word) cache.WordState {
	if c.lines.get(w.LineOf()).own.Has(w.Index()) {
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
	if s := c.lines.ptr(w.LineOf()); s != nil && s.own.Has(w.Index()) {
		return c.lines.ownVal(s, w.Index()), true
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
	if c.lines.get(w.LineOf()).own.Has(w.Index()) {
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
			c.node, c.sb.Len(), c.lines.regWords, c.reads.Len(), c.lines.ownWords, c.victim.Len())
	}
	if n := c.cache.CountWords(cache.Registered); n != 0 {
		return 0, fmt.Errorf("denovo: phase-drain: node %d still owns %d words after recall", c.node, n)
	}
	return c.cache.Invalidate(), nil
}
