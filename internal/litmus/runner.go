package litmus

import (
	"fmt"

	"denovogpu/internal/machine"
	"denovogpu/internal/mem"
	"denovogpu/internal/workload"
)

// Address layout: every litmus variable gets its own cache line (the
// oracle models variables, not lines, so two variables must never share
// a line's fill/invalidate granularity), and every thread gets a
// private line-aligned area to record its observed values in.
const (
	varBase  = mem.Addr(0x10_0000)
	outBase  = mem.Addr(0x20_0000)
	varSpace = 2 * mem.LineBytes // one line per var, one line of padding
	outSlots = 16                // recorded values per thread (line each)
)

// VarAddr is the simulated address of variable v.
func VarAddr(v int) mem.Addr { return varBase + mem.Addr(v)*varSpace }

func outAddr(thread, slot int) mem.Addr {
	return outBase + mem.Addr(thread*outSlots+slot)*mem.LineBytes
}

// threadsPerTB: litmus ops are scalar (thread-0) accesses; one warp.
const threadsPerTB = 32

// Run executes the program once on a fresh machine built from cfg,
// perturbed by the schedule, and returns the observed outcome. The
// returned outcome has the same shape as the oracle's: recorded values
// per thread plus the final value of every variable.
func Run(cfg machine.Config, p *Program, sched Schedule) (Outcome, error) {
	if err := p.Validate(); err != nil {
		return Outcome{}, err
	}
	cfg = cfg.Defaults()
	// Every litmus run doubles as a sanitizer run: the hot-path
	// assertions and quiesced-state checks observe without perturbing
	// timing, so outcomes are unchanged and protocol-structure bugs
	// surface even on conforming schedules.
	cfg.Invariants = true
	maxSlot := 0
	for _, n := range p.MaxSlotPerCU() {
		if n > maxSlot {
			maxSlot = n
		}
	}
	if maxSlot > cfg.MaxResidentTBs {
		return Outcome{}, fmt.Errorf("litmus: %q pins %d threads to one CU, but only %d blocks are resident",
			p.Name, maxSlot, cfg.MaxResidentTBs)
	}
	// CU pins address the contiguous worker-index space across all
	// devices: CU i lives on device i/NumCUs, so a 2-device machine
	// accepts pins in [0, 2*NumCUs) and pinning thread 0 to CU 0 and
	// thread 1 to CU NumCUs places them on different devices.
	totalCUs := cfg.Devices * cfg.NumCUs
	for ti, t := range p.Threads {
		if t.CU >= totalCUs {
			return Outcome{}, fmt.Errorf("litmus: %q thread %d pinned to CU %d of %d", p.Name, ti, t.CU, totalCUs)
		}
		if n := numRecords(t); n > outSlots {
			return Outcome{}, fmt.Errorf("litmus: %q thread %d records %d values (max %d)", p.Name, ti, n, outSlots)
		}
	}

	m := machine.New(cfg)

	// Pin each litmus thread to its CU via the launcher's round-robin
	// placement; all other blocks in the grid exit immediately.
	tbThread := make(map[int]int)
	slotUsed := make(map[int]int)
	for ti, t := range p.Threads {
		slot := slotUsed[t.CU]
		slotUsed[t.CU]++
		tb := m.PlaceTB(t.CU, slot)
		tbThread[tb] = ti
	}
	numTBs := totalCUs * maxSlot

	kernel := func(c *workload.Ctx) {
		ti, ok := tbThread[c.TB]
		if !ok {
			return
		}
		t := p.Threads[ti]
		rec := make([]uint32, 0, outSlots)
		for oi, op := range t.Ops {
			if len(sched) > ti && len(sched[ti]) > oi && sched[ti][oi] > 0 {
				c.Wait(sched[ti][oi])
			}
			a := VarAddr(op.Var)
			switch op.Kind {
			case OpLoad:
				rec = append(rec, c.Load(a))
			case OpStore:
				c.Store(a, op.Val)
			case OpSyncLoad:
				rec = append(rec, c.AtomicLoad(a, op.Scope))
			case OpSyncStore:
				c.AtomicStore(a, op.Val, op.Scope)
			case OpSyncAdd:
				rec = append(rec, c.AtomicAdd(a, op.Val, op.Scope))
			}
		}
		// Publish the recorded values through the thread's private out
		// area (flushed by the kernel-boundary release, race-free).
		for i, v := range rec {
			c.Store(outAddr(ti, i), v+1) // +1 distinguishes "recorded 0" from "never ran"
		}
	}

	m.Launch(kernel, numTBs, threadsPerTB)
	if err := m.Err(); err != nil {
		return Outcome{}, fmt.Errorf("litmus: %q under %s: %w", p.Name, cfg.Name(), err)
	}

	o := Outcome{Loads: make([][]uint32, len(p.Threads)), Final: make([]uint32, len(p.Vars))}
	for ti, t := range p.Threads {
		n := numRecords(t)
		o.Loads[ti] = make([]uint32, n)
		for i := 0; i < n; i++ {
			v := m.Read(outAddr(ti, i))
			if v == 0 {
				return Outcome{}, fmt.Errorf("litmus: %q under %s: thread %d record %d missing", p.Name, cfg.Name(), ti, i)
			}
			o.Loads[ti][i] = v - 1
		}
	}
	for vi := range p.Vars {
		o.Final[vi] = m.Read(VarAddr(vi))
	}
	return o, nil
}

func numRecords(t Thread) int {
	n := 0
	for _, op := range t.Ops {
		if op.Kind.Records() {
			n++
		}
	}
	return n
}

// Schedules builds the deterministic schedule set used by the
// differential runner: the unperturbed schedule, a family of "stagger"
// schedules that hold each thread back after its first operation (the
// shape that exposes stale-read windows: one thread races ahead and
// publishes while another sits on cached data), and extra seeded random
// schedules up to n total.
func Schedules(p *Program, n int, seed uint64) []Schedule {
	var out []Schedule
	out = append(out, ZeroSchedule(p))
	for _, unit := range []int{200, 600} {
		for dir := 0; dir < 2; dir++ {
			s := ZeroSchedule(p)
			for ti := range s {
				k := ti
				if dir == 1 {
					k = len(s) - 1 - ti
				}
				for oi := range s[ti] {
					if oi > 0 {
						s[ti][oi] = k * unit
					}
				}
			}
			out = append(out, s)
		}
	}
	rng := newSplitMix(seed)
	for len(out) < n {
		s := ZeroSchedule(p)
		for ti := range s {
			for oi := range s[ti] {
				s[ti][oi] = int(rng.next()%5) * 130
			}
		}
		out = append(out, s)
	}
	if len(out) > n && n > 0 {
		out = out[:n]
	}
	return out
}

// Violation describes one oracle violation found by the runner.
type Violation struct {
	Config   machine.Config
	Program  *Program
	Schedule Schedule
	Observed Outcome
	Allowed  map[string]Outcome
}

func (v *Violation) Error() string {
	return fmt.Sprintf("litmus: %s under %s observed outcome %q not permitted by the %v oracle (%d permitted outcomes)\n%s",
		v.Program.Name, v.Config.Name(), v.Observed.Key(), v.Config.Model, len(v.Allowed), v.Program)
}

// Check runs the program under every configuration in cfgs with every
// schedule, comparing each observed outcome with the oracle for the
// configuration's consistency model. It returns the first violation
// found (nil if all runs conform). Oracle enumeration is done once per
// model.
func Check(cfgs []machine.Config, p *Program, scheds []Schedule) (*Violation, error) {
	oracles := make(map[string]map[string]Outcome)
	for _, cfg := range cfgs {
		key := cfg.Model.String()
		if _, ok := oracles[key]; !ok {
			allowed, err := Oracle(p, cfg.Model, 0)
			if err != nil {
				return nil, err
			}
			oracles[key] = allowed
		}
		for _, sched := range scheds {
			obs, err := Run(cfg, p, sched)
			if err != nil {
				return nil, err
			}
			if _, ok := oracles[key][obs.Key()]; !ok {
				return &Violation{Config: cfg, Program: p, Schedule: sched, Observed: obs, Allowed: oracles[key]}, nil
			}
		}
	}
	return nil, nil
}
