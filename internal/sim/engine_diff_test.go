package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// engineAPI is the surface Engine and refEngine share.
type engineAPI interface {
	Now() Time
	Fired() uint64
	Schedule(delay Time, fn func())
	At(t Time, fn func())
	ScheduleTask(delay Time, task Task)
	AtTask(t Time, task Task)
	SetAdvanceHook(fn func(leaving Time))
	Pending() bool
	Halt()
	Step() bool
	Run() error
	RunUntil(t Time)
}

// firing is one observation in a harness log: an event id and the time
// it fired at, or (id hookID) an advance-hook call with the cycle left.
type firing struct {
	id int
	at Time
}

const hookID = -1

// diffHarness drives one engine with a seeded stream of choices. Two
// harnesses built from the same seed make the same choices for as long
// as their engines fire the same events at the same times, so the first
// divergence shows up in the logs.
type diffHarness struct {
	eng    engineAPI
	rng    *rand.Rand
	log    []firing
	nextID int
	budget int // events that may still be scheduled from inside tasks
}

// diffTask is the pooled-payload form of an event.
type diffTask struct {
	h  *diffHarness
	id int
}

func (t *diffTask) Run() { t.h.fire(t.id) }

func (h *diffHarness) fire(id int) {
	h.log = append(h.log, firing{id, h.eng.Now()})
	switch r := h.rng.Intn(16); {
	case r < 5 && h.budget > 0:
		// Schedule from inside a running task, zero delays included.
		h.budget--
		h.schedule()
	case r == 5 && h.budget > 1:
		h.budget -= 2
		h.schedule()
		h.schedule()
	case r == 6:
		h.eng.Halt()
	}
}

// schedule adds one event through a randomly chosen entry point, at a
// delay that may be zero, at the edges of the ring window, or far
// enough out to go through the far heap.
func (h *diffHarness) schedule() {
	id := h.nextID
	h.nextID++
	var d Time
	switch r := h.rng.Intn(12); {
	case r < 3:
		d = 0
	case r == 3:
		d = ringSize - 1 - Time(h.rng.Intn(2))
	case r == 4:
		d = ringSize + Time(h.rng.Intn(3*ringSize))
	case r == 5:
		d = Time(h.rng.Intn(ringSize))
	default:
		d = Time(h.rng.Intn(24))
	}
	switch h.rng.Intn(4) {
	case 0:
		h.eng.Schedule(d, func() { h.fire(id) })
	case 1:
		h.eng.At(h.eng.Now()+d, func() { h.fire(id) })
	case 2:
		h.eng.ScheduleTask(d, &diffTask{h, id})
	default:
		h.eng.AtTask(h.eng.Now()+d, &diffTask{h, id})
	}
}

// TestEngineDifferential runs seeded random operation sequences against
// the slab engine and the reference engine and requires the same fired
// (id, time) sequence, hook calls, Fired(), Now(), Pending() and Run
// results after every operation.
func TestEngineDifferential(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		script := rand.New(rand.NewSource(seed))
		horizon := Time(0)
		if seed%4 == 3 {
			horizon = Time(2000 + script.Intn(4000))
		}
		a := &diffHarness{eng: NewEngine(horizon), rng: rand.New(rand.NewSource(seed)), budget: 400}
		b := &diffHarness{eng: newRefEngine(horizon), rng: rand.New(rand.NewSource(seed)), budget: 400}
		for op := 0; op < 60; op++ {
			var desc string
			var resA, resB string
			switch r := script.Intn(10); {
			case r < 3:
				n := 1 + script.Intn(30)
				desc = fmt.Sprintf("schedule %d", n)
				for i := 0; i < n; i++ {
					a.schedule()
					b.schedule()
				}
			case r < 5:
				desc = "run"
				resA, resB = fmt.Sprint(a.eng.Run()), fmt.Sprint(b.eng.Run())
			case r < 7:
				n := 1 + script.Intn(40)
				desc = fmt.Sprintf("step x%d", n)
				for i := 0; i < n; i++ {
					resA += fmt.Sprint(a.eng.Step())
					resB += fmt.Sprint(b.eng.Step())
				}
			case r < 9:
				// Sometimes far past every pending event: the idle
				// advance must slide the window the same way.
				until := a.eng.Now() + Time(script.Intn(3*ringSize))
				desc = fmt.Sprintf("run until %d", until)
				a.eng.RunUntil(until)
				b.eng.RunUntil(until)
			default:
				if script.Intn(2) == 0 {
					desc = "hook on"
					a.eng.SetAdvanceHook(func(l Time) { a.log = append(a.log, firing{hookID, l}) })
					b.eng.SetAdvanceHook(func(l Time) { b.log = append(b.log, firing{hookID, l}) })
				} else {
					desc = "hook off"
					a.eng.SetAdvanceHook(nil)
					b.eng.SetAdvanceHook(nil)
				}
			}
			where := fmt.Sprintf("seed %d op %d (%s)", seed, op, desc)
			if resA != resB {
				t.Fatalf("%s: result %q, reference %q", where, resA, resB)
			}
			if len(a.log) != len(b.log) {
				t.Fatalf("%s: %d firings, reference %d", where, len(a.log), len(b.log))
			}
			for i := range a.log {
				if a.log[i] != b.log[i] {
					t.Fatalf("%s: firing %d is %+v, reference %+v", where, i, a.log[i], b.log[i])
				}
			}
			if a.eng.Fired() != b.eng.Fired() || a.eng.Now() != b.eng.Now() || a.eng.Pending() != b.eng.Pending() {
				t.Fatalf("%s: fired/now/pending %d/%d/%v, reference %d/%d/%v", where,
					a.eng.Fired(), a.eng.Now(), a.eng.Pending(), b.eng.Fired(), b.eng.Now(), b.eng.Pending())
			}
		}
	}
}

type nopTask struct{}

func (*nopTask) Run() {}

// TestSteadyStateZeroAlloc pins that a warmed engine allocates nothing
// per event: ScheduleTask reuses slab nodes, and At boxes a prebuilt
// func into a Task without allocating. Enough rounds run to wrap the
// ring several times, so every slot is reused.
func TestSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine(0)
	task := &nopTask{}
	if n := testing.AllocsPerRun(4*ringSize, func() {
		e.ScheduleTask(3, task)
		e.ScheduleTask(0, task)
		e.Step()
		e.Step()
	}); n != 0 {
		t.Errorf("ScheduleTask + Step: %v allocs per run, want 0", n)
	}
	fn := func() {}
	if n := testing.AllocsPerRun(4*ringSize, func() {
		e.At(e.Now()+1, fn)
		e.At(e.Now()+1, fn)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("At + Run: %v allocs per run, want 0", n)
	}
	if e.Fired() != 4*(4*ringSize+1) {
		t.Fatalf("fired %d events, want %d", e.Fired(), 4*(4*ringSize+1))
	}
}
