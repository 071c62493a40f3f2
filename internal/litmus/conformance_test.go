package litmus

import (
	"flag"
	"testing"

	"denovogpu/internal/consistency"
	"denovogpu/internal/machine"
)

// fuzzBudget is the tier-1 differential fuzzing budget (programs per
// run); each program executes under all five paper configurations with
// several schedules.
const (
	fuzzSeed   = 20260805
	fuzzBudget = 220
)

// -fuzzbudget overrides the budget explicitly (CI smoke jobs use a
// small value to keep the fuzzer exercised without paying for the full
// tier-1 budget). It wins over the -short default.
var fuzzBudgetFlag = flag.Int("fuzzbudget", 0, "override the differential fuzzing budget (0 = default)")

// TestCatalogOracleAnnotations cross-checks the catalog's allowed/
// forbidden annotations against the executable oracle: the oracle must
// permit each shape's weak outcome exactly under the models the catalog
// says permit it. This pins down both the catalog and the oracle.
func TestCatalogOracleAnnotations(t *testing.T) {
	for _, e := range Catalog() {
		e := e
		t.Run(e.Program.Name, func(t *testing.T) {
			for _, m := range []consistency.Model{consistency.DRF, consistency.HRF} {
				allowed, err := Oracle(e.Program, m, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(allowed) == 0 {
					t.Fatalf("%v oracle permits no outcomes", m)
				}
				weakSeen := false
				for _, o := range allowed {
					if e.Weak(o) {
						weakSeen = true
						break
					}
				}
				want := e.AllowedDRF
				if m == consistency.HRF {
					want = e.AllowedHRF
				}
				if weakSeen != want {
					t.Errorf("%v oracle: weak outcome permitted=%v, catalog says %v (%s)", m, weakSeen, want, e.Doc)
				}
			}
		})
	}
}

// TestCatalogConformance runs every catalog program under all five
// paper configurations across the schedule set and checks
// that every observed outcome is permitted by the configuration's
// consistency model.
func TestCatalogConformance(t *testing.T) {
	for _, e := range Catalog() {
		e := e
		t.Run(e.Program.Name, func(t *testing.T) {
			t.Parallel()
			scheds := Schedules(e.Program, 7, fuzzSeed)
			v, err := Check(machine.AllConfigs(), e.Program, scheds)
			if err != nil {
				t.Fatal(err)
			}
			if v != nil {
				t.Fatal(v.Error())
			}
		})
	}
}

// TestFuzzConformance is the differential conformance fuzzer: seeded,
// splittable random programs, each executed under all six
// configurations and checked against the oracle. Any violation is
// shrunk to a minimal counterexample and reported as a replayable case.
func TestFuzzConformance(t *testing.T) {
	budget := fuzzBudget
	if testing.Short() {
		budget = 40
	}
	if *fuzzBudgetFlag > 0 {
		budget = *fuzzBudgetFlag
	}
	gp := DefaultGenParams()
	for i := 0; i < budget; i++ {
		p := Generate(fuzzSeed, uint64(i), gp)
		if err := p.Validate(); err != nil {
			t.Fatalf("generator produced invalid program %d: %v", i, err)
		}
		scheds := Schedules(p, 3, fuzzSeed^uint64(i))
		v, err := Check(machine.AllConfigs(), p, scheds)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		if v != nil {
			sp, ss := Shrink(v.Config, v.Program, v.Schedule)
			c := &Case{Config: v.Config.Name(), Program: sp, Schedule: ss, Observed: &v.Observed}
			js, _ := c.MarshalIndent()
			t.Fatalf("program %d violates the %v oracle under %s:\n%s\nshrunk replayable case:\n%s",
				i, v.Config.Model, v.Config.Name(), v.Error(), js)
		}
	}
}

// TestBrokenAcquireDetectedAndShrunk proves the harness catches real
// consistency bugs: with the test-only fault knob disabling acquire
// invalidation, the catalog (and the fuzzer behind it) must observe an
// oracle violation, and the shrinker must reduce it to a minimal
// counterexample of at most 6 operations.
func TestBrokenAcquireDetectedAndShrunk(t *testing.T) {
	for _, base := range []machine.Config{machine.GD(), machine.DD()} {
		base := base
		t.Run(base.Name(), func(t *testing.T) {
			t.Parallel()
			cfg := base
			cfg.FaultDisableAcquireInval = true
			var found *Violation
			for _, e := range Catalog() {
				scheds := append(Schedules(e.Program, 7, fuzzSeed), staleWindow(e.Program))
				v, err := Check([]machine.Config{cfg}, e.Program, scheds)
				if err != nil {
					t.Fatal(err)
				}
				if v != nil {
					found = v
					break
				}
			}
			if found == nil {
				t.Fatalf("broken acquire invalidation not detected by the catalog under %s", base.Name())
			}
			sp, ss := Shrink(cfg, found.Program, found.Schedule)
			if n := sp.NumOps(); n > 6 {
				t.Fatalf("shrunk counterexample has %d ops, want <= 6:\n%s", n, sp)
			}
			if !stillViolates(cfg, sp, ss) {
				t.Fatalf("shrunk counterexample no longer violates:\n%s", sp)
			}
			// Minimality: removing any single remaining op must make the
			// violation disappear (that is what Shrink converged on).
			for ti := range sp.Threads {
				for oi := range sp.Threads[ti].Ops {
					cand, cands := sp.Clone(), ss.Clone()
					cand.Threads[ti].Ops = append(cand.Threads[ti].Ops[:oi:oi], cand.Threads[ti].Ops[oi+1:]...)
					cands[ti] = append(cands[ti][:oi:oi], cands[ti][oi+1:]...)
					cand, cands = dropEmpty(cand, cands)
					if stillViolates(cfg, cand, cands) {
						t.Fatalf("shrunk counterexample not minimal: removing T%d op %d still violates:\n%s", ti, oi, sp)
					}
				}
			}
			t.Logf("broken acquire shrunk to %d ops under %s:\n%s", sp.NumOps(), base.Name(), sp)
		})
	}
}

// staleWindow opens the classic stale-read window that acquire
// invalidation exists to close: the last thread issues its first op
// (the preload) immediately, the writer threads run shortly after, and
// the reader's remaining ops wait until the writers are long done. The
// generic schedule set usually finds this window on its own for GPU
// coherence (the store buffer hides writes until the release), but
// DeNovo registers writes eagerly, which shrinks the window enough to
// need this targeted shape.
func staleWindow(p *Program) Schedule {
	s := ZeroSchedule(p)
	last := len(s) - 1
	for ti := range s {
		for oi := range s[ti] {
			if ti != last {
				s[ti][oi] = 150
			} else if oi > 0 {
				s[ti][oi] = 900
			}
		}
	}
	return s
}

// TestReplayRoundTrip checks that a case serializes and replays to the
// same observed outcome (the contract behind cmd/litmus -replay).
func TestReplayRoundTrip(t *testing.T) {
	e := Catalog()[0]
	sched := Schedules(e.Program, 2, 1)[1]
	obs, err := Run(machine.DD(), e.Program, sched)
	if err != nil {
		t.Fatal(err)
	}
	c := &Case{Config: "DD", Program: e.Program, Schedule: sched, Observed: &obs}
	js, err := c.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	rc, err := ParseCase(js)
	if err != nil {
		t.Fatal(err)
	}
	obs2, err := Run(machine.DD(), rc.Program, rc.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if obs2.Key() != obs.Key() {
		t.Fatalf("replay diverged: %q vs %q (determinism broken)", obs2.Key(), obs.Key())
	}
}
