// Package sim provides a deterministic discrete-event simulation engine.
//
// Every timed component in the simulator (caches, network links, compute
// units, DRAM) advances by scheduling events on a single Engine. Events
// fire in (time, insertion-sequence) order, so two events scheduled for
// the same cycle fire in the order they were scheduled. This total order,
// combined with the single-threaded event loop, makes every simulation
// bit-for-bit reproducible.
//
// The queue is a calendar/heap hybrid tuned for the simulator's traffic:
// almost every event is scheduled a few to a few hundred cycles out
// (pipeline latencies, NoC hops, DRAM). An event inside the window
// [now, now+ringSize) is a bare Task in one recycled slab of nodes,
// linked into a FIFO list for its cycle; a ring of ringSize list heads
// maps each cycle of the window to its list. Insert and remove are O(1),
// freed nodes are reused most-recent-first, and memory is bounded by the
// peak number of pending events. The rare far-future event goes to a
// small binary heap on (time, seq) and migrates into the ring when the
// window slides. A cycle's FIFO list is its events in global insertion
// order, so ring events need no stored time or sequence number; see
// DESIGN.md "Simulation model notes" for why this preserves the exact
// (time, sequence) firing order of the original single-heap design.
// Run fires a whole cycle per loop turn: one horizon check and clock
// advance, then the cycle's list drains, zero-delay events appended
// during the drain included.
package sim

import (
	"fmt"
	"math"
)

// Time is simulation time in cycles. The whole machine runs on the GPU
// clock domain (700 MHz in the paper's Table 3); the CPU core only
// launches kernels, so a single domain is sufficient.
type Time uint64

// Forever is a time later than any reachable simulation time.
const Forever Time = math.MaxUint64

// The bucket ring covers cycles [now, now+ringSize). 1024 cycles spans
// every fixed latency in the model (the largest, DRAM, is ~200), so in
// practice the far heap only sees deliberately distant events such as
// test timeouts.
const (
	ringSize = 1024
	ringMask = ringSize - 1
)

// Task is a pooled event payload: Run is invoked when the event fires.
// Components on the steady-state path keep a FreeList of each payload
// struct and schedule them with ScheduleTask/AtTask — storing a
// pointer in the Task interface allocates nothing, unlike a closure,
// which heap-allocates its captured variables on every Schedule. A
// task returns itself to its free list from inside Run once it has
// extracted what it needs.
type Task interface{ Run() }

// funcTask adapts a closure to Task. A func value is pointer-shaped, so
// the conversion to the interface does not allocate.
type funcTask func()

func (f funcTask) Run() { f() }

// node is one slab slot: a pending ring event, or a free slot. next
// links the cycle's FIFO list (or the free list); 0 means none, so
// nodes[0] is never used.
type node struct {
	task Task
	next int32
}

// bucket is one cycle's FIFO list of slab nodes; both ends are 0 when
// the cycle has no events.
type bucket struct{ head, tail int32 }

// farEvent is a far-heap entry. Only these carry a time and a sequence
// number: a ring event's slot gives its time and its list position its
// order.
type farEvent struct {
	at   Time
	seq  uint64
	task Task
}

func farLess(a, b *farEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is the discrete-event simulation kernel.
//
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now    Time
	fired  uint64
	limit  Time // horizon: exceeding it means a hang; Run returns an error
	halted bool

	// ring[t&ringMask] lists the events for cycle t, for t in
	// [now, now+ringSize) only — one cycle per slot, never mixed.
	ring      [ringSize]bucket
	ringCount int
	// cursor is the first cycle that may hold ring events; cycles in
	// [now, cursor) are known empty, so the bucket scan never revisits
	// them.
	cursor Time
	// nodes is the slab every ring event lives in; free heads its LIFO
	// free list.
	nodes []node
	free  int32
	// far is a binary min-heap on (at, seq) of events at or beyond
	// now+ringSize. advanceTo drains it into the ring as now moves. seq
	// numbers far events only.
	far []farEvent
	seq uint64

	// hook, when set, observes every clock advance (see SetAdvanceHook).
	hook func(leaving Time)
}

// NewEngine returns an engine at time 0 with the given horizon. A zero
// horizon means no limit.
func NewEngine(horizon Time) *Engine {
	if horizon == 0 {
		horizon = Forever
	}
	return &Engine{limit: horizon, nodes: make([]node, 1)}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (a useful progress
// and determinism diagnostic).
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule runs fn at the given delay from now. A zero delay fires later
// in the current cycle, after all previously scheduled events for this
// cycle.
func (e *Engine) Schedule(delay Time, fn func()) {
	e.insert(e.now+delay, funcTask(fn))
}

// At runs fn at absolute time t. Scheduling in the past panics: it is
// always a model bug.
func (e *Engine) At(t Time, fn func()) {
	e.insert(t, funcTask(fn))
}

// ScheduleTask runs task at the given delay from now, sharing the
// (time, seq) order with Schedule/At exactly — tasks and closures
// scheduled for the same cycle interleave in scheduling order.
func (e *Engine) ScheduleTask(delay Time, task Task) {
	e.insert(e.now+delay, task)
}

// AtTask runs task at absolute time t.
func (e *Engine) AtTask(t Time, task Task) {
	e.insert(t, task)
}

func (e *Engine) insert(t Time, task Task) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d in the past (now %d)", t, e.now))
	}
	if t-e.now < ringSize {
		e.push(t, task)
		return
	}
	e.seq++
	e.pushFar(farEvent{at: t, seq: e.seq, task: task})
}

// push appends task to cycle t's list, in a recycled node when one is
// free.
func (e *Engine) push(t Time, task Task) {
	i := e.free
	if i != 0 {
		e.free = e.nodes[i].next
		e.nodes[i] = node{task: task}
	} else {
		i = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{task: task})
	}
	b := &e.ring[t&ringMask]
	if b.tail == 0 {
		b.head = i
	} else {
		e.nodes[b.tail].next = i
	}
	b.tail = i
	e.ringCount++
	if t < e.cursor {
		e.cursor = t
	}
}

// pop unlinks the first event of the non-empty list b and frees its
// node.
func (e *Engine) pop(b *bucket) Task {
	i := b.head
	n := &e.nodes[i]
	task := n.task
	b.head = n.next
	if b.head == 0 {
		b.tail = 0
	}
	n.task, n.next = nil, e.free // release the payload for GC
	e.free = i
	e.ringCount--
	return task
}

// SetAdvanceHook installs an observer called whenever the clock moves,
// with the cycle being left — at that instant every event of that cycle
// has fired, so the hook sees the cycle's final state. The hook must
// not schedule events or otherwise touch the engine: it is an
// observation point (the obs epoch sampler), not a component, and runs
// outside the (time, seq) event order that determinism rests on.
// Scheduling from the hook would also keep the queue non-empty, so Run
// would never return. A nil hook (the default) disables the callback.
func (e *Engine) SetAdvanceHook(fn func(leaving Time)) { e.hook = fn }

// Pending reports whether any events remain.
func (e *Engine) Pending() bool { return e.ringCount > 0 || len(e.far) > 0 }

// Halt stops the event loop after the current event returns. Remaining
// events stay queued; Run returns nil.
func (e *Engine) Halt() { e.halted = true }

// nextTime returns the time of the earliest pending event without
// advancing the clock, so Run can enforce the horizon before firing.
// Ring events are always earlier than far events (the far heap only
// holds times at or beyond now+ringSize), so the ring is scanned first;
// cursor makes the scan amortized O(1) because it never moves backwards
// past an emptied cycle.
func (e *Engine) nextTime() (Time, bool) {
	if e.ringCount > 0 {
		for e.ring[e.cursor&ringMask].head == 0 {
			e.cursor++
			// Every ring event lies inside the window, so running off
			// its end means corrupted lists: fail instead of spinning.
			if e.cursor-e.now >= ringSize {
				panic(fmt.Sprintf("sim: %d ring events but none in [%d, %d)", e.ringCount, e.now, e.now+ringSize))
			}
		}
		return e.cursor, true
	}
	if len(e.far) > 0 {
		return e.far[0].at, true
	}
	return 0, false
}

// advanceTo moves the clock to t (the next event time) and slides the
// ring window: any far event now within [t, t+ringSize) migrates into
// its cycle's list. Migration happens before any event at time t runs,
// so a far event for cycle T always enters T's list before any direct
// push for T can occur (direct pushes for T are only possible once now
// is within ringSize of T, and then every earlier push for T was a far
// one) — heap order delivers migrants in (at, seq) order, so each list
// stays in global insertion order and the original FIFO semantics are
// preserved exactly.
func (e *Engine) advanceTo(t Time) {
	if e.hook != nil && t != e.now {
		e.hook(e.now)
	}
	e.now = t
	if e.cursor < t {
		e.cursor = t
	}
	for len(e.far) > 0 && e.far[0].at-t < ringSize {
		ev := e.popFar()
		e.push(ev.at, ev.task)
	}
}

// fireNext fires the earliest event of cycle t, which the caller found
// via nextTime.
func (e *Engine) fireNext(t Time) {
	e.advanceTo(t)
	e.fired++
	e.pop(&e.ring[t&ringMask]).Run()
}

// Step fires the single next event and returns true, or returns false if
// the queue is empty.
func (e *Engine) Step() bool {
	t, ok := e.nextTime()
	if !ok {
		return false
	}
	e.fireNext(t)
	return true
}

// Run fires events until the queue drains, Halt is called, or the time
// horizon is exceeded (returned as an error, since it indicates a hang
// such as a deadlocked synchronization benchmark). Each loop turn
// drains one cycle: events scheduled for the current cycle while it
// drains join the tail of its list and fire in the same turn.
func (e *Engine) Run() error {
	e.halted = false
	for !e.halted {
		t, ok := e.nextTime()
		if !ok {
			return nil
		}
		if t > e.limit {
			return fmt.Errorf("sim: horizon %d cycles exceeded at %d events; simulation is likely deadlocked", e.limit, e.fired)
		}
		e.advanceTo(t)
		b := &e.ring[t&ringMask]
		for b.head != 0 && !e.halted {
			e.fired++
			e.pop(b).Run()
		}
	}
	return nil
}

// RunUntil fires events up to and including time t, leaving later events
// queued.
func (e *Engine) RunUntil(t Time) {
	for {
		next, ok := e.nextTime()
		if !ok || next > t {
			break
		}
		e.fireNext(next)
	}
	// Idle-advance through advanceTo so the ring cursor tracks the new
	// now and far events whose time entered [t, t+ringSize) migrate into
	// their lists — a bare `e.now = t` would leave the cursor behind
	// (later At() calls could then fire at the wrong cycle) and would let
	// a direct push for cycle T land before T's unmigrated far event,
	// inverting same-cycle FIFO order.
	if e.now < t {
		e.advanceTo(t)
	}
}

// pushFar inserts into the far heap (binary sift-up).
func (e *Engine) pushFar(ev farEvent) {
	e.far = append(e.far, ev)
	i := len(e.far) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !farLess(&e.far[i], &e.far[p]) {
			break
		}
		e.far[i], e.far[p] = e.far[p], e.far[i]
		i = p
	}
}

// popFar removes the heap minimum (binary sift-down).
func (e *Engine) popFar() farEvent {
	min := e.far[0]
	n := len(e.far) - 1
	e.far[0] = e.far[n]
	e.far[n] = farEvent{}
	e.far = e.far[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && farLess(&e.far[l], &e.far[s]) {
			s = l
		}
		if r < n && farLess(&e.far[r], &e.far[s]) {
			s = r
		}
		if s == i {
			break
		}
		e.far[i], e.far[s] = e.far[s], e.far[i]
		i = s
	}
	return min
}
