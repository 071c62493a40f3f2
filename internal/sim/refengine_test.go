package sim

// refEngine is the previous bucket-of-slices engine, kept as the
// reference TestEngineDifferential compares the slab engine against:
// every event is stored by value with its time and a global sequence
// number, each ring slot is its own growable slice, and Run fires one
// event per loop turn. Only the identifiers differ from the original.

import "fmt"

// event is a scheduled callback, stored by value. Exactly one of fn
// and task is set.
type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	task Task
}

func refEventLess(a, b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// bucket holds the events of one cycle in insertion order. head indexes
// the next event to fire; once drained the slice resets to length zero,
// keeping its capacity as a free list for later cycles that map to the
// same slot.
type refBucket struct {
	ev   []refEvent
	head int
}

// Engine is the discrete-event simulation kernel.
//
// The zero value is not usable; create engines with NewEngine.
type refEngine struct {
	now    Time
	seq    uint64
	fired  uint64
	limit  Time // horizon: exceeding it means a hang; Run returns an error
	halted bool

	// ring[t&ringMask] holds the events for cycle t, for t in
	// [now, now+ringSize) only — one cycle per slot, never mixed.
	ring      []refBucket
	ringCount int
	// cursor is the first cycle that may hold ring events; cycles in
	// [now, cursor) are known empty, so the bucket scan never revisits
	// them.
	cursor Time
	// far is a binary min-heap on (at, seq) of events at or beyond
	// now+ringSize. advanceTo drains it into the ring as now moves.
	far []refEvent

	// hook, when set, observes every clock advance (see SetAdvanceHook).
	hook func(leaving Time)
}

// NewEngine returns an engine at time 0 with the given horizon. A zero
// horizon means no limit.
func newRefEngine(horizon Time) *refEngine {
	if horizon == 0 {
		horizon = Forever
	}
	return &refEngine{limit: horizon, ring: make([]refBucket, ringSize)}
}

// Now returns the current simulation time.
func (e *refEngine) Now() Time { return e.now }

// Fired returns the number of events executed so far (a useful progress
// and determinism diagnostic).
func (e *refEngine) Fired() uint64 { return e.fired }

// Schedule runs fn at the given delay from now. A zero delay fires later
// in the current cycle, after all previously scheduled events for this
// cycle.
func (e *refEngine) Schedule(delay Time, fn func()) {
	e.At(e.now+delay, fn)
}

// At runs fn at absolute time t. Scheduling in the past panics: it is
// always a model bug.
func (e *refEngine) At(t Time, fn func()) {
	e.insert(refEvent{at: t, fn: fn})
}

// ScheduleTask runs task at the given delay from now, sharing the
// (time, seq) order with Schedule/At exactly — tasks and closures
// scheduled for the same cycle interleave in scheduling order.
func (e *refEngine) ScheduleTask(delay Time, task Task) {
	e.insert(refEvent{at: e.now + delay, task: task})
}

// AtTask runs task at absolute time t.
func (e *refEngine) AtTask(t Time, task Task) {
	e.insert(refEvent{at: t, task: task})
}

func (e *refEngine) insert(ev refEvent) {
	t := ev.at
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling refEvent at %d in the past (now %d)", t, e.now))
	}
	e.seq++
	ev.seq = e.seq
	if t-e.now < ringSize {
		b := &e.ring[t&ringMask]
		b.ev = append(b.ev, ev)
		e.ringCount++
		if t < e.cursor {
			e.cursor = t
		}
	} else {
		e.pushFar(ev)
	}
}

// SetAdvanceHook installs an observer called whenever the clock moves,
// with the cycle being left — at that instant every event of that cycle
// has fired, so the hook sees the cycle's final state. The hook must
// not schedule events or otherwise touch the engine: it is an
// observation point (the obs epoch sampler), not a component, and runs
// outside the (time, seq) event order that determinism rests on.
// Scheduling from the hook would also keep the queue non-empty, so Run
// would never return. A nil hook (the default) disables the callback.
func (e *refEngine) SetAdvanceHook(fn func(leaving Time)) { e.hook = fn }

// Pending reports whether any events remain.
func (e *refEngine) Pending() bool { return e.ringCount > 0 || len(e.far) > 0 }

// Halt stops the event loop after the current event returns. Remaining
// events stay queued; Run returns nil.
func (e *refEngine) Halt() { e.halted = true }

// nextTime returns the time of the earliest pending event without
// advancing the clock, so Run can enforce the horizon before firing.
// Ring events are always earlier than far events (the far heap only
// holds times at or beyond now+ringSize), so the ring is scanned first;
// cursor makes the scan amortized O(1) because it never moves backwards
// past an emptied cycle.
func (e *refEngine) nextTime() (Time, bool) {
	if e.ringCount > 0 {
		for {
			b := &e.ring[e.cursor&ringMask]
			if b.head < len(b.ev) {
				return e.cursor, true
			}
			e.cursor++
		}
	}
	if len(e.far) > 0 {
		return e.far[0].at, true
	}
	return 0, false
}

// advanceTo moves the clock to t (the next event time) and slides the
// ring window: any far event now within [t, t+ringSize) migrates into
// its bucket. Migration happens before any event at time t runs, so a
// far event for cycle T always enters T's bucket before any direct
// append for T can occur (direct appends for T are only possible once
// now is within ringSize of T) — heap order delivers migrants in (at,
// seq) order, so per-bucket insertion order remains global seq order
// and the original FIFO semantics are preserved exactly.
func (e *refEngine) advanceTo(t Time) {
	if e.hook != nil && t != e.now {
		e.hook(e.now)
	}
	e.now = t
	if e.cursor < t {
		e.cursor = t
	}
	for len(e.far) > 0 && e.far[0].at-t < ringSize {
		ev := e.popFar()
		b := &e.ring[ev.at&ringMask]
		b.ev = append(b.ev, ev)
		e.ringCount++
		if ev.at < e.cursor {
			e.cursor = ev.at
		}
	}
}

// fireNext fires the earliest event of cycle t, which the caller found
// via nextTime.
func (e *refEngine) fireNext(t Time) {
	e.advanceTo(t)
	b := &e.ring[t&ringMask]
	ev := &b.ev[b.head]
	fn, task := ev.fn, ev.task
	ev.fn, ev.task = nil, nil // release the closure for GC
	b.head++
	if b.head == len(b.ev) {
		b.ev = b.ev[:0]
		b.head = 0
	}
	e.ringCount--
	e.fired++
	if task != nil {
		task.Run()
	} else {
		fn()
	}
}

// Step fires the single next event and returns true, or returns false if
// the queue is empty.
func (e *refEngine) Step() bool {
	t, ok := e.nextTime()
	if !ok {
		return false
	}
	e.fireNext(t)
	return true
}

// Run fires events until the queue drains, Halt is called, or the time
// horizon is exceeded (returned as an error, since it indicates a hang
// such as a deadlocked synchronization benchmark).
func (e *refEngine) Run() error {
	e.halted = false
	for !e.halted {
		t, ok := e.nextTime()
		if !ok {
			return nil
		}
		if t > e.limit {
			return fmt.Errorf("sim: horizon %d cycles exceeded at %d events; simulation is likely deadlocked", e.limit, e.fired)
		}
		e.fireNext(t)
	}
	return nil
}

// RunUntil fires events up to and including time t, leaving later events
// queued.
func (e *refEngine) RunUntil(t Time) {
	for {
		next, ok := e.nextTime()
		if !ok || next > t {
			break
		}
		e.fireNext(next)
	}
	// Idle-advance through advanceTo so the ring cursor tracks the new
	// now and far events whose time entered [t, t+ringSize) migrate into
	// their buckets — a bare `e.now = t` would leave the cursor behind
	// (later At() calls could then fire at the wrong cycle) and would let
	// a direct append for cycle T land before T's unmigrated far event,
	// inverting same-cycle FIFO order.
	if e.now < t {
		e.advanceTo(t)
	}
}

// pushFar inserts into the far heap (binary sift-up; events by value,
// no interface boxing).
func (e *refEngine) pushFar(ev refEvent) {
	e.far = append(e.far, ev)
	i := len(e.far) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !refEventLess(&e.far[i], &e.far[p]) {
			break
		}
		e.far[i], e.far[p] = e.far[p], e.far[i]
		i = p
	}
}

// popFar removes the heap minimum (binary sift-down).
func (e *refEngine) popFar() refEvent {
	min := e.far[0]
	n := len(e.far) - 1
	e.far[0] = e.far[n]
	e.far[n] = refEvent{}
	e.far = e.far[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && refEventLess(&e.far[l], &e.far[s]) {
			s = l
		}
		if r < n && refEventLess(&e.far[r], &e.far[s]) {
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
