// Package gpucoh implements conventional GPU (software-driven,
// writethrough) coherence at the L1: reader-initiated flash
// invalidation on acquires, buffered coalesced writethroughs drained at
// releases, and synchronization performed remotely at the L2 bank.
//
// The same controller serves both consistency models. Under DRF the
// machine maps every synchronization to global scope and the controller
// behaves exactly like the paper's GPU-D. Under HRF, locally scoped
// synchronizations reach the controller with ScopeLocal: they execute
// at the L1, and local acquires/releases skip the invalidate/flush —
// the paper's GPU-H. The only added hardware GPU-H needs is a bit per
// word to track partially written blocks; in this model that role is
// played by the word-granular store buffer plus per-word valid bits.
package gpucoh

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
	kL1AtomicsLocal          = stats.Intern("l1.atomics_local")
	kL1AtomicsRemote         = stats.Intern("l1.atomics_remote")
	kL1DirtyEvictions        = stats.Intern("l1.dirty_evictions")
	kL1FillsDroppedStale     = stats.Intern("l1.fills_dropped_stale")
	kL1FlashInvalidations    = stats.Intern("l1.flash_invalidations")
	kL1InvalidatedWords      = stats.Intern("l1.invalidated_words")
	kL1ReadHits              = stats.Intern("l1.read_hits")
	kL1ReadMisses            = stats.Intern("l1.read_misses")
	kL1Writethroughs         = stats.Intern("l1.writethroughs")
	kSbCoalescedWrites       = stats.Intern("sb.coalesced_writes")
	kSbOverflowWritethroughs = stats.Intern("sb.overflow_writethroughs")
	kSbReleaseDrains         = stats.Intern("sb.release_drains")
)

type readWaiter struct {
	need mem.WordMask // words still to come from the fill
	vals [mem.WordsPerLine]uint32
	cb   func([mem.WordsPerLine]uint32)
}

type readTxn struct {
	epoch   uint64
	waiters []readWaiter
}

type pendingLocalAtomic struct {
	op       coherence.AtomicOp
	operand  uint32
	operand2 uint32
	scope    coherence.Scope
	cb       func(uint32)
}

// remoteAtomic is an in-flight L2-executed atomic: the word identifies
// which per-word serialization slot to release when the response
// arrives. Stored by value so issuing a remote atomic allocates no
// completion closure.
type remoteAtomic struct {
	w  mem.Word
	cb func(uint32)
}

// Controller is one CU's (or the CPU's) GPU-coherence L1.
type Controller struct {
	node  noc.NodeID
	eng   *sim.Engine
	mesh  noc.Sender
	st    *stats.Stats
	meter *energy.Meter
	// topo locates each line's home L2 bank (single-device by default;
	// see SetTopology).
	topo topology.Desc

	// partialBlocks enables GPU-H's per-word dirty tracking: writes
	// allocate into the L1 as Dirty words (no fetch needed — the dirty
	// bits identify the written subset of the block) and are flushed to
	// the L2 only at global releases or evictions. Without it (GPU-D),
	// writes live in the store buffer until they write through.
	partialBlocks bool

	cache *cache.Cache
	// sb buffers writes until they write through, and tracks the
	// words with writethroughs in flight in the same line-keyed index:
	// a fill arriving while a writethrough is in flight must not
	// resurrect the pre-write value, so reads and fill merges take
	// sb.NewestLine over the fill, one probe per line.
	sb *cache.StoreBuffer

	// Read transactions are keyed by request ID; lineTxn points at the
	// joinable (current-epoch) transaction for a line, if any. A
	// post-acquire miss must not join a pre-acquire fill, so joining
	// checks the transaction's epoch. These tables are open-addressed
	// (wordmap) rather than builtin maps: they sit on the protocol's
	// hottest paths and the dense tables reuse their storage across
	// transaction churn.
	reads   wordmap.Map[*readTxn]
	lineTxn wordmap.Map[uint64]
	atomics wordmap.Map[remoteAtomic]
	// localAtomicQ is each word's synchronization pipeline; the head
	// of the queue is the atomic being processed. A word has an entry
	// only while an atomic on it is queued or in progress: the last pop
	// deletes it and parks the emptied backing array on atomicQSpare,
	// which the next word to start a queue takes, so a hot lock word
	// does not reallocate on every acquire.
	localAtomicQ wordmap.Map[[]pendingLocalAtomic]
	atomicQSpare [][]pendingLocalAtomic

	// pool and the free lists below keep steady-state operation
	// allocation-free: messages and event payloads cycle through
	// per-controller free lists instead of the heap (see
	// coherence.MsgPool for the message ownership discipline).
	pool         coherence.MsgPool
	readDoneFree sim.FreeList[readDoneTask]
	atomDoneFree sim.FreeList[atomicDoneTask]
	readTxnFree  sim.FreeList[readTxn]

	nextID        uint64
	outstandingWT int
	relWaiters    []func()
	relSpare      []func() // relWaiters' other backing array, see Deliver
	epoch         uint64

	// groupScratch is the release path's scratch, reused across calls
	// so draining the store buffer by line allocates nothing.
	groupScratch []cache.LineGroup

	// faultNoAcqInval makes global acquires no-ops (test-only fault
	// injection; see DisableAcquireInvalidation).
	faultNoAcqInval bool

	// invariants arms the sanitizer's hot-path assertions (see
	// EnableInvariantChecks).
	invariants bool

	// rec, when non-nil, receives L1/sync events on track c.node.
	rec *obs.Recorder
}

// New returns a controller with the given L1 geometry and store buffer
// capacity, attached to the network at node (single-device geometry;
// multi-device machines follow up with SetTopology).
func New(node noc.NodeID, eng *sim.Engine, mesh noc.Network, st *stats.Stats, meter *energy.Meter, l1Bytes, l1Ways, sbEntries int, partialBlocks bool) *Controller {
	c := &Controller{
		node: node, eng: eng, mesh: mesh, st: st, meter: meter,
		topo:          topology.Single(),
		partialBlocks: partialBlocks,
		// GPU-H's acquire keeps its own unflushed (dirty) words: they
		// are this CU's writes, not potentially-stale remote data.
		cache: cache.New(l1Bytes, l1Ways, cache.Keep{Owned: partialBlocks}),
		sb:    cache.NewStoreBuffer(sbEntries),
	}
	mesh.Attach(node, noc.PortL1, c)
	return c
}

// SetTopology installs the machine geometry (call before simulation).
func (c *Controller) SetTopology(topo topology.Desc) { c.topo = topo }

// home returns the node whose L2 bank homes the line.
func (c *Controller) home(l mem.Line) noc.NodeID { return c.topo.HomeNode(l) }

var _ coherence.L1 = (*Controller)(nil)

// readDoneTask is the pooled payload of a read-completion event. It
// frees itself before invoking the callback so a read issued from
// inside the callback can reuse it.
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

// atomicDoneTask completes one locally applied atomic: it invokes the
// callback, releases the per-word serialization slot, and pumps the
// next queued same-word atomic.
type atomicDoneTask struct {
	c   *Controller
	w   mem.Word
	ret uint32
	cb  func(uint32)
}

func (t *atomicDoneTask) Run() {
	c, w, ret, cb := t.c, t.w, t.ret, t.cb
	t.cb = nil
	c.atomDoneFree.Put(t)
	cb(ret)
	c.nextLocalAtomic(w)
}

func (c *Controller) scheduleAtomicDone(d sim.Time, w mem.Word, ret uint32, cb func(uint32)) {
	t := c.atomDoneFree.Get()
	t.c, t.w, t.ret, t.cb = c, w, ret, cb
	c.eng.ScheduleTask(d, t)
}

// freeReadTxn resets t, keeping its waiter-slice capacity, so a
// transaction from readTxnFree.Get reads as new.
func (c *Controller) freeReadTxn(t *readTxn) {
	*t = readTxn{waiters: t.waiters[:0]}
	c.readTxnFree.Put(t)
}

// SetRecorder installs an obs recorder (nil to disable) for this L1 and
// its store buffer; events land on track c.node in the CU domain.
func (c *Controller) SetRecorder(rec *obs.Recorder) {
	c.rec = rec
	c.sb.SetRecorder(rec, int32(c.node))
}

// MSHROccupancy returns the number of outstanding transactions: read
// misses, remote atomics, and unacked writethroughs (the obs sampler's
// l1.mshr gauge).
func (c *Controller) MSHROccupancy() int {
	return c.reads.Len() + c.atomics.Len() + c.outstandingWT
}

// OutstandingRegistrations is zero for GPU coherence (no registry), kept
// so the obs sampler wires both protocols uniformly.
func (c *Controller) OutstandingRegistrations() int { return 0 }

// ReadLine implements coherence.L1.
func (c *Controller) ReadLine(l mem.Line, need mem.WordMask, cb func([mem.WordsPerLine]uint32)) {
	c.meter.L1Access(1)
	var vals [mem.WordsPerLine]uint32
	missing := need
	entry := c.cache.Lookup(l)
	if c.partialBlocks && entry != nil {
		// A dirty word in the L1 (GPU-H) is the newest copy — newer
		// than any in-flight writethrough of a previously flushed value.
		for i := 0; i < mem.WordsPerLine; i++ {
			if missing.Has(i) && entry.State[i] == cache.Dirty {
				vals[i] = entry.Data[i]
				missing &^= mem.Bit(i)
			}
		}
	}
	missing &^= c.sb.NewestLine(l, missing, &vals)
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
	var txn *readTxn
	if id, ok := c.lineTxn.Get(uint64(l)); ok {
		if t, _ := c.reads.Get(id); t != nil && t.epoch == c.epoch {
			txn = t
		}
	}
	if txn == nil {
		txn = c.readTxnFree.Get()
		txn.epoch = c.epoch
		c.nextID++
		c.reads.Put(c.nextID, txn)
		c.lineTxn.Put(uint64(l), c.nextID)
		c.mesh.Send(c.pool.NewMsg(&coherence.Msg{
			Kind: coherence.ReadReq, Src: c.node, Dst: c.home(l), Port: noc.PortL2,
			Line: l, Mask: mem.AllWords, ID: c.nextID,
		}))
	}
	txn.waiters = append(txn.waiters, readWaiter{need: missing, vals: vals, cb: cb})
}

// WriteLine implements coherence.L1: writes are buffered in the
// coalescing store buffer; overflow drains the oldest line group early,
// so future writes to those words cannot coalesce and each rewrite
// goes through separately (the LavaMD effect).
func (c *Controller) WriteLine(l mem.Line, mask mem.WordMask, data [mem.WordsPerLine]uint32, cb func()) {
	c.meter.L1Access(1)
	if c.partialBlocks {
		c.writeDirty(l, mask, data)
		c.eng.Schedule(coherence.L1HitCycles, cb)
		return
	}
	entry := c.cache.Lookup(l)
	for i := 0; i < mem.WordsPerLine; i++ {
		if !mask.Has(i) {
			continue
		}
		w := l.Word(i)
		c.meter.StoreBuffer(1)
		coalesced, evicted := c.sb.Insert(w, data[i])
		if coalesced {
			c.st.IncKey(kSbCoalescedWrites, 1)
		}
		if evicted != nil {
			c.st.IncKey(kSbOverflowWritethroughs, 1)
			c.sendWT(evicted.Line, evicted.Mask, evicted.Data)
		}
		if entry != nil {
			entry.Data[i] = data[i]
			entry.State[i] = cache.Valid
		}
	}
	c.eng.Schedule(coherence.L1HitCycles, cb)
}

func (c *Controller) sendWT(l mem.Line, mask mem.WordMask, data [mem.WordsPerLine]uint32) {
	c.outstandingWT++
	c.st.IncKey(kL1Writethroughs, 1)
	c.sb.WTSent(l, mask, &data)
	c.mesh.Send(c.pool.NewMsg(&coherence.Msg{
		Kind: coherence.WriteThrough, Src: c.node, Dst: c.home(l), Port: noc.PortL2,
		Line: l, Mask: mask, Data: data,
	}))
}

// writeDirty installs written words into the L1 as Dirty (GPU-H's
// partial-block writes): no fetch, no store-buffer slot; the words are
// flushed at a global release or on eviction.
func (c *Controller) writeDirty(l mem.Line, mask mem.WordMask, data [mem.WordsPerLine]uint32) {
	e := c.cache.Victim(l)
	if e == nil {
		panic("gpucoh: no victim available (GPU L1 frames are never pinned)")
	}
	if !e.Tag || e.Line != l {
		if e.Tag {
			c.evictDirty(e)
		}
		e.Reset(l)
	}
	for i := 0; i < mem.WordsPerLine; i++ {
		if mask.Has(i) {
			e.Data[i] = data[i]
			e.State[i] = cache.Dirty
		}
	}
	c.cache.Touch(e)
}

// evictDirty writes back a victim frame's dirty words before reuse.
func (c *Controller) evictDirty(e *cache.Entry) {
	dirty := e.MaskOf(cache.Dirty)
	if dirty == 0 {
		return
	}
	c.st.IncKey(kL1DirtyEvictions, 1)
	if c.rec != nil {
		c.rec.Emit(obs.L1Writeback, int32(c.node), uint64(e.Line))
	}
	c.sendWT(e.Line, dirty, e.Data)
}

// Atomic implements coherence.L1. Global-scope synchronizations execute
// remotely at the L2 bank (no L1 caching of synchronization variables —
// the central inefficiency the paper attributes to GPU coherence).
// Local-scope synchronizations execute at the L1.
func (c *Controller) Atomic(op coherence.AtomicOp, w mem.Word, operand, operand2 uint32, scope coherence.Scope, cb func(uint32)) {
	if scope == coherence.ScopeLocal {
		c.st.IncKey(kL1AtomicsLocal, 1)
		if c.rec != nil {
			c.rec.Emit(obs.L1SyncHit, int32(c.node), uint64(w))
		}
	} else {
		c.st.IncKey(kL1AtomicsRemote, 1)
		if c.rec != nil {
			c.rec.Emit(obs.L1SyncMiss, int32(c.node), uint64(w))
		}
	}
	// All synchronization to one word funnels through a single per-word
	// pipeline at this L1, whatever its scope: same-CU synchronizations
	// are properly scoped with respect to each other even when one is
	// local and one global (both scopes include both threads under
	// HRF-indirect), so they must serialize — a global atomic overlapping
	// a local RMW's read-to-write window would lose an update.
	q := c.localAtomicQ.Upsert(uint64(w))
	if n := len(c.atomicQSpare); *q == nil && n > 0 {
		*q = c.atomicQSpare[n-1]
		c.atomicQSpare = c.atomicQSpare[:n-1]
	}
	*q = append(*q, pendingLocalAtomic{op, operand, operand2, scope, cb})
	if len(*q) == 1 {
		c.startLocalAtomic(w, (*q)[0])
	}
}

// nextLocalAtomic retires w's head atomic, whose processing is done, and
// starts the next queued one; the last pop deletes w's entry.
func (c *Controller) nextLocalAtomic(w mem.Word) {
	qp, _ := c.localAtomicQ.Ptr(uint64(w))
	q := *qp
	// Pop by shifting down rather than re-slicing forward, so the queue
	// keeps its backing capacity and the append/pop churn of a busy sync
	// word never reallocates.
	copy(q, q[1:])
	q[len(q)-1] = pendingLocalAtomic{} // release the callback for GC
	if len(q) == 1 {
		c.localAtomicQ.Delete(uint64(w))
		c.atomicQSpare = append(c.atomicQSpare, q[:0])
		return
	}
	*qp = q[:len(q)-1]
	c.startLocalAtomic(w, q[0])
}

// startLocalAtomic processes p, the head of w's queue, so same-word
// synchronization is serialized. A local-scope atomic reads the current
// value (store buffer, then cache, then a line fetch), applies the RMW,
// and — if the operation actually wrote — buffers the result as a dirty
// word. A global-scope atomic executes at the L2: local copies of the
// word are flushed ahead of it (the mesh keeps per-pair FIFO order) and
// invalidated so the L2 serializes every access.
func (c *Controller) startLocalAtomic(w mem.Word, p pendingLocalAtomic) {
	if p.scope != coherence.ScopeLocal {
		if v, ok := c.sb.Remove(w); ok {
			var data [mem.WordsPerLine]uint32
			data[w.Index()] = v
			c.sendWT(w.LineOf(), mem.Bit(w.Index()), data)
		}
		if e := c.cache.Peek(w.LineOf()); e != nil && e.State[w.Index()] != cache.Invalid {
			if e.State[w.Index()] == cache.Dirty {
				c.sendWT(w.LineOf(), mem.Bit(w.Index()), e.Data)
			}
			e.State[w.Index()] = cache.Invalid
		}
		c.nextID++
		id := c.nextID
		c.atomics.Put(id, remoteAtomic{w: w, cb: p.cb})
		c.mesh.Send(c.pool.NewMsg(&coherence.Msg{
			Kind: coherence.AtomicReq, Src: c.node, Dst: c.home(w.LineOf()), Port: noc.PortL2,
			Line: w.LineOf(), WordIdx: w.Index(), Op: p.op, Operand: p.operand, Operand2: p.operand2, ID: id,
		}))
		return
	}

	if e := c.cache.Lookup(w.LineOf()); c.partialBlocks && e != nil && e.State[w.Index()] == cache.Dirty {
		c.finishLocalAtomic(w, p, e.Data[w.Index()])
		return
	}
	if v, ok := c.sb.Newest(w); ok {
		c.finishLocalAtomic(w, p, v)
		return
	}
	if e := c.cache.Lookup(w.LineOf()); e != nil && e.State[w.Index()] != cache.Invalid {
		c.finishLocalAtomic(w, p, e.Data[w.Index()])
		return
	}
	// Miss: fetch the line, then RMW.
	c.ReadLine(w.LineOf(), mem.Bit(w.Index()), func(vals [mem.WordsPerLine]uint32) {
		c.finishLocalAtomic(w, p, vals[w.Index()])
	})
}

// finishLocalAtomic applies a local-scope RMW to the current value cur
// and schedules its completion.
func (c *Controller) finishLocalAtomic(w mem.Word, p pendingLocalAtomic, cur uint32) {
	next, ret := p.op.Apply(cur, p.operand, p.operand2)
	c.meter.L1Access(1)
	if !p.op.WritesBack(cur, next) {
		// A pure synchronization read must not dirty the word: marking
		// the read value dirty would flush it at the next global
		// release and clobber a concurrent writer's update.
		c.scheduleAtomicDone(coherence.L1HitCycles, w, ret, p.cb)
		return
	}
	if c.partialBlocks {
		var data [mem.WordsPerLine]uint32
		data[w.Index()] = next
		c.writeDirty(w.LineOf(), mem.Bit(w.Index()), data)
	} else {
		c.meter.StoreBuffer(1)
		_, evicted := c.sb.Insert(w, next)
		if evicted != nil {
			c.st.IncKey(kSbOverflowWritethroughs, 1)
			c.sendWT(evicted.Line, evicted.Mask, evicted.Data)
		}
		if e := c.cache.Peek(w.LineOf()); e != nil {
			e.Data[w.Index()] = next
			e.State[w.Index()] = cache.Valid
		}
	}
	c.scheduleAtomicDone(coherence.L1HitCycles, w, ret, p.cb)
}

// Acquire implements coherence.L1: a global acquire flash-invalidates
// the whole L1 so no stale data can be read; a local acquire (HRF) does
// nothing.
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

// DisableAcquireInvalidation is test-only fault injection: it makes
// globally scoped acquires skip the flash invalidation, so stale cached
// data survives synchronization. The litmus conformance harness uses it
// to verify that it detects consistency violations.
func (c *Controller) DisableAcquireInvalidation() { c.faultNoAcqInval = true }

// EnableInvariantChecks arms the protocol sanitizer
// (machine.Config.Invariants): the writethrough-ack path panics on an
// ack that finds no pending entry (the wt-balance invariant), and
// CheckInvariants validates the quiesced-state suite. The assertions
// schedule no events and touch no counters, so an armed run stays
// cycle- and report-identical to an unarmed one.
func (c *Controller) EnableInvariantChecks() { c.invariants = true }

// CheckInvariants validates the sanitizer's quiesced-state suite for
// this controller: the store buffer's structure (sb-fifo), the
// outstanding-writethrough count in step with the per-word pending
// table (wt-balance), and — once drained — no per-word atomic queue
// entry at all (a queued atomic with no one processing it is a lost
// wakeup).
func (c *Controller) CheckInvariants() error {
	if err := c.sb.CheckInvariants(); err != nil {
		return fmt.Errorf("node %d: %w", c.node, err)
	}
	if (c.outstandingWT == 0) != (c.sb.WTWords() == 0) {
		return fmt.Errorf("gpucoh: wt-balance: node %d has %d writethroughs outstanding but %d words pending",
			c.node, c.outstandingWT, c.sb.WTWords())
	}
	// A word keeps its queue entry only while an atomic on it is queued
	// or in progress.
	if n := c.localAtomicQ.Len(); n > 0 && c.Drained() {
		return fmt.Errorf("gpucoh: node %d drained with local atomics queued or in progress on %d words", c.node, n)
	}
	return nil
}

// Release implements coherence.L1: a global release drains the store
// buffer as per-line coalesced writethroughs and completes when every
// writethrough (including earlier overflow drains) has been acked by
// the L2; a local release (HRF) completes immediately.
func (c *Controller) Release(scope coherence.Scope, cb func()) {
	if scope == coherence.ScopeLocal {
		c.eng.Schedule(coherence.L1HitCycles, cb)
		return
	}
	if c.rec != nil {
		c.rec.Emit(obs.SyncRelease, int32(c.node), uint64(c.sb.Len()))
	}
	if n := c.sb.Len(); n > 0 {
		c.meter.StoreBuffer(n)
		c.groupScratch = c.sb.AppendDrainLines(c.groupScratch[:0])
		c.st.IncKey(kSbReleaseDrains, 1)
		for _, g := range c.groupScratch {
			c.sendWT(g.Line, g.Mask, g.Data)
		}
	}
	if c.partialBlocks {
		// Flush and downgrade every dirty word (the paper's "on a
		// globally scoped release, GPU-H must flush and downgrade all
		// dirty data to the L2").
		c.cache.ForEach(func(e *cache.Entry) {
			dirty := e.MaskOf(cache.Dirty)
			if dirty == 0 {
				return
			}
			c.sendWT(e.Line, dirty, e.Data)
			for i := 0; i < mem.WordsPerLine; i++ {
				if dirty.Has(i) {
					e.State[i] = cache.Valid
				}
			}
		})
	}
	if c.outstandingWT == 0 {
		c.eng.Schedule(coherence.L1HitCycles, cb)
		return
	}
	c.relWaiters = append(c.relWaiters, cb)
}

// Drained implements coherence.L1.
func (c *Controller) Drained() bool {
	return c.sb.Len() == 0 && c.outstandingWT == 0 && c.reads.Len() == 0 &&
		c.atomics.Len() == 0 && c.sb.WTWords() == 0
}

// Deliver implements noc.Handler.
func (c *Controller) Deliver(p noc.Packet) {
	msg, ok := p.(*coherence.Msg)
	if !ok {
		panic(fmt.Sprintf("gpucoh: non-coherence packet %T", p))
	}
	switch msg.Kind {
	case coherence.ReadResp:
		c.fill(msg)
	case coherence.WriteThroughAck:
		c.outstandingWT--
		if c.outstandingWT < 0 {
			panic("gpucoh: more writethrough acks than writethroughs")
		}
		if unmatched := c.sb.WTAcked(msg.Line, msg.Mask); unmatched != 0 && c.invariants {
			w := msg.Line.Word(bits.TrailingZeros16(uint16(unmatched)))
			panic(fmt.Sprintf("gpucoh: wt-balance: node %d acked a writethrough of %v with no pending entry", c.node, w))
		}
		if c.outstandingWT == 0 {
			// Swap in the spare storage, so a waiter that releases
			// again appends to an array this loop is not reading, and
			// keep the fired one as the next spare. relSpare is nil
			// until the loop ends, so a nested round cannot alias it.
			waiters := c.relWaiters
			c.relWaiters, c.relSpare = c.relSpare[:0], nil
			for _, w := range waiters {
				w()
			}
			clear(waiters)
			c.relSpare = waiters[:0]
		}
	case coherence.AtomicResp:
		ra, ok := c.atomics.Get(msg.ID)
		if !ok {
			panic(fmt.Sprintf("gpucoh: atomic response with unknown id %d", msg.ID))
		}
		c.atomics.Delete(msg.ID)
		ra.cb(msg.Result)
		c.nextLocalAtomic(ra.w)
	default:
		panic(fmt.Sprintf("gpucoh: unexpected message %v", msg.Kind))
	}
	// Every handler above is done with the message once it returns (fill
	// copies what its waiters need), so it recycles here.
	c.pool.Put(msg)
}

func (c *Controller) fill(msg *coherence.Msg) {
	txn, _ := c.reads.Get(msg.ID)
	if txn == nil {
		panic(fmt.Sprintf("gpucoh: fill for %v without transaction", msg.Line))
	}
	c.reads.Delete(msg.ID)
	if id, _ := c.lineTxn.Get(uint64(msg.Line)); id == msg.ID {
		c.lineTxn.Delete(uint64(msg.Line))
	}
	// Install only if no acquire invalidated the cache since the
	// request: a post-acquire read must not be satisfied by a
	// pre-acquire fill lingering in the cache.
	if txn.epoch == c.epoch {
		if e := c.cache.Victim(msg.Line); e != nil {
			if e.Line != msg.Line || !e.Tag {
				if e.Tag && c.partialBlocks {
					c.evictDirty(e)
				}
				e.Reset(msg.Line)
			}
			fill := msg.Mask
			if c.partialBlocks {
				fill &^= e.MaskOf(cache.Dirty) // own unflushed writes are newer
			}
			// So are own buffered or in-flight writes.
			vals := msg.Data
			c.sb.NewestLine(msg.Line, fill, &vals)
			for i := 0; i < mem.WordsPerLine; i++ {
				if fill.Has(i) {
					e.Data[i] = vals[i]
					e.State[i] = cache.Valid
				}
			}
			c.cache.Touch(e)
			c.meter.L1Access(1)
		}
	} else {
		c.st.IncKey(kL1FillsDroppedStale, 1)
	}
	for _, w := range txn.waiters {
		vals := w.vals
		for i := 0; i < mem.WordsPerLine; i++ {
			if w.need.Has(i) {
				vals[i] = msg.Data[i]
			}
		}
		c.scheduleReadDone(coherence.L1HitCycles, vals, w.cb)
	}
	c.freeReadTxn(txn)
}

// CacheWordState exposes a word's L1 state for tests.
func (c *Controller) CacheWordState(w mem.Word) cache.WordState {
	if e := c.cache.Peek(w.LineOf()); e != nil {
		return e.State[w.Index()]
	}
	return cache.Invalid
}

// PeekWord returns the L1-visible value of a word (store buffer first),
// for functional host reads; ok is false if the word is not present.
func (c *Controller) PeekWord(w mem.Word) (uint32, bool) {
	if e := c.cache.Peek(w.LineOf()); c.partialBlocks && e != nil && e.State[w.Index()] == cache.Dirty {
		return e.Data[w.Index()], true
	}
	if v, ok := c.sb.Newest(w); ok {
		return v, true
	}
	if e := c.cache.Peek(w.LineOf()); e != nil && e.State[w.Index()] != cache.Invalid {
		return e.Data[w.Index()], true
	}
	return 0, false
}

// StoreBufferLen exposes store-buffer occupancy for tests.
func (c *Controller) StoreBufferLen() int { return c.sb.Len() }

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

// HostDropClean empties the cache at a phase-transition drain: every
// remaining word becomes Invalid and frames are untagged. It requires
// a quiesced controller; a leftover Dirty word (GPU-H partial blocks)
// would be a lost write, since the kernel-boundary release must have
// flushed them all — so Acquire's invalidation, which would spare it,
// drops everything. Returns the number of clean words dropped.
func (c *Controller) HostDropClean() (int, error) {
	if !c.Drained() {
		return 0, fmt.Errorf("gpucoh: phase-drain: node %d not drained (sb=%d wt=%d reads=%d atomics=%d)",
			c.node, c.sb.Len(), c.outstandingWT, c.reads.Len(), c.atomics.Len())
	}
	if c.partialBlocks {
		if n := c.cache.CountWords(cache.Dirty); n != 0 {
			return 0, fmt.Errorf("gpucoh: phase-drain: node %d holds %d unflushed dirty words", c.node, n)
		}
	}
	return c.cache.Invalidate(), nil
}
