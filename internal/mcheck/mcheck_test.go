package mcheck

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
)

// TestCatalogClean exhaustively checks every catalog shape under every
// configuration (the litmus six plus DH+lazy): no invariant violation,
// no oracle non-conformance, within the default budget.
func TestCatalogClean(t *testing.T) {
	// The four-thread and three-CU DeNovo cells run to tens of millions
	// of DPOR nodes (minutes of wall clock each; far more under the
	// race detector), so they are skipped here to keep the plain
	// `go test ./...` wall bounded; the CI mcheck job checks them on
	// every push (TestDPORConformance with MCHECK_FULL=1). IRIW+scoped
	// is the exception: under DD/DD+RO/DH+lazy it exceeds any
	// affordable stateless budget outright (see EXPERIMENTS.md:
	// co-located sync threads make acquire self-invalidation conflict
	// with every same-CU cache mutation, so the Mazurkiewicz trace
	// count dwarfs the 218k-state space), yet the reference explorer's
	// visited table completes all four DeNovo cells in seconds. They
	// are checked here with it, so every IRIW+scoped cell has a verdict
	// in the plain test run.
	for _, cfg := range Configs() {
		for _, e := range litmus.Catalog() {
			check := func() (*Result, error) { return Check(cfg, e.Program, Options{}) }
			if heavyPrograms[e.Program.Name] && cfg.Protocol == machine.ProtoDeNovo {
				if e.Program.Name != "IRIW+scoped" {
					continue
				}
				check = func() (*Result, error) { return checkReference(cfg, e.Program, referenceFullBudget, false) }
			}
			res, err := check()
			if err != nil {
				t.Fatalf("%s / %s: %v", cfg.Name(), e.Program.Name, err)
			}
			if res.Violation != nil {
				t.Fatalf("%s / %s: %v", cfg.Name(), e.Program.Name, res.Violation)
			}
			if len(res.Outcomes) == 0 {
				t.Fatalf("%s / %s: no terminal outcome reached", cfg.Name(), e.Program.Name)
			}
			t.Logf("%-8s %-22s %7d states, %d outcomes", cfg.Name(), e.Program.Name, res.States, len(res.Outcomes))
		}
	}
}

// TestPORSoundOnCatalog validates the DPOR reduction against no
// reduction at all (the reference explorer with POR disabled):
// exploration reaches exactly the same terminal outcomes and the same
// verdict.
func TestPORSoundOnCatalog(t *testing.T) {
	shapes := map[string]bool{"MP": true, "SB+sync": true, "CoRR": true, "LB": true}
	for _, cfg := range Configs() {
		for _, e := range litmus.Catalog() {
			if !shapes[e.Program.Name] {
				continue
			}
			por, err := Check(cfg, e.Program, Options{})
			if err != nil {
				t.Fatalf("%s / %s (POR): %v", cfg.Name(), e.Program.Name, err)
			}
			full, err := checkReference(cfg, e.Program, 0, true)
			if err != nil {
				t.Fatalf("%s / %s (full): %v", cfg.Name(), e.Program.Name, err)
			}
			if (por.Violation == nil) != (full.Violation == nil) {
				t.Fatalf("%s / %s: POR verdict %v, full verdict %v",
					cfg.Name(), e.Program.Name, por.Violation, full.Violation)
			}
			for k := range full.Outcomes {
				if _, ok := por.Outcomes[k]; !ok {
					t.Errorf("%s / %s: outcome %s reachable without POR but missed with it",
						cfg.Name(), e.Program.Name, k)
				}
			}
			for k := range por.Outcomes {
				if _, ok := full.Outcomes[k]; !ok {
					t.Errorf("%s / %s: outcome %s found only with POR", cfg.Name(), e.Program.Name, k)
				}
			}
		}
	}
}

// TestWeakOutcomesReachable spot-checks model completeness: the racy
// store-buffering weak outcome (both loads 0, permitted by both
// models) must be reachable under GD, where write buffering is the
// protocol's signature relaxation.
func TestWeakOutcomesReachable(t *testing.T) {
	for _, e := range litmus.Catalog() {
		if e.Program.Name != "SB+data" {
			continue
		}
		res, err := Check(machine.GD(), e.Program, Options{})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, o := range res.Outcomes {
			if e.Weak(o) {
				found = true
			}
		}
		if !found {
			t.Fatalf("SB+data weak outcome unreachable in the GD model; outcomes: %v", keys(res.Outcomes))
		}
		return
	}
	t.Fatal("SB+data not in catalog")
}

// TestFaultInjectionFindsViolation turns off acquire invalidation (the
// litmus engine's seeded fault) and checks the message-passing shape
// whose reader pre-caches stale data: the checker must flush out the
// stale read as an oracle-conformance violation whose Case replays.
func TestFaultInjectionFindsViolation(t *testing.T) {
	var mp *litmus.Program
	for _, e := range litmus.Catalog() {
		if e.Program.Name == "MP+preload" {
			mp = e.Program
		}
	}
	if mp == nil {
		t.Fatal("MP+preload not in catalog")
	}
	for _, base := range []machine.Config{machine.GD(), machine.DD()} {
		cfg := base
		cfg.FaultDisableAcquireInval = true
		res, err := Check(cfg, mp, Options{})
		if err != nil {
			t.Fatalf("%s: %v", base.Name(), err)
		}
		if res.Violation == nil {
			t.Fatalf("%s: fault injection not detected", base.Name())
		}
		v := res.Violation
		if v.Invariant != "oracle-conformance" {
			t.Fatalf("%s: violated %q, want oracle-conformance", base.Name(), v.Invariant)
		}
		if v.Observed == nil || len(v.Trace) == 0 {
			t.Fatalf("%s: counterexample missing outcome or trace: %+v", base.Name(), v)
		}
		c := v.Case()
		if c.Config != base.Name() || !c.Fault {
			t.Fatalf("%s: case misnames the configuration: %q fault=%v", base.Name(), c.Config, c.Fault)
		}
		if _, err := c.MarshalIndent(); err != nil {
			t.Fatalf("%s: case does not marshal: %v", base.Name(), err)
		}
	}
}

// TestBudgetError checks that exhausting the exploration budget is a
// typed, distinguishable error — never a verdict.
func TestBudgetError(t *testing.T) {
	var mp *litmus.Program
	for _, e := range litmus.Catalog() {
		if e.Program.Name == "MP" {
			mp = e.Program
		}
	}
	_, err := Check(machine.GD(), mp, Options{Budget: 10})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *BudgetError", err)
	}
	if be.Budget != 10 || be.Program != "MP" {
		t.Fatalf("budget error fields: %+v", be)
	}
}

// TestCheckDeterministicAcrossWorkers is the determinism wall of the
// parallel Check: at 1, 2 and 8 workers it must give equal States,
// outcome keys, Violation.Error() bytes and BudgetError.States on the
// light catalog cells, on the fault-injected MP+preload cells under GD
// and DD, on MP under a budget of 10 nodes (the split phase exhausts
// it) and on MP+preload under DD with a budget its units exhaust.
func TestCheckDeterministicAcrossWorkers(t *testing.T) {
	type cell struct {
		cfg    machine.Config
		p      *litmus.Program
		budget int
	}
	var cells []cell
	for _, cfg := range Configs() {
		for _, e := range litmus.Catalog() {
			if !heavyPrograms[e.Program.Name] {
				cells = append(cells, cell{cfg, e.Program, 0})
			}
		}
	}
	mp, preload := catalogProgram(t, "MP"), catalogProgram(t, "MP+preload")
	for _, base := range []machine.Config{machine.GD(), machine.DD()} {
		cfg := base
		cfg.FaultDisableAcquireInval = true
		cells = append(cells, cell{cfg, preload, 0})
	}
	cells = append(cells, cell{machine.GD(), mp, 10}, cell{machine.DD(), preload, 20_000})

	// verdict renders everything a Check returns that must not depend
	// on the worker count.
	verdict := func(c cell, workers int) string {
		res, err := check(c.cfg, c.p, Options{Budget: c.budget}, checkUnits, workers)
		var be *BudgetError
		switch {
		case errors.As(err, &be):
			return fmt.Sprintf("budget %d exhausted at %d states", be.Budget, be.States)
		case err != nil:
			t.Fatalf("%s / %s at %d workers: %v", c.cfg.Name(), c.p.Name, workers, err)
		case res.Violation != nil:
			return fmt.Sprintf("%d states, outcomes %v\n%s", res.States, outcomeKeys(res.Outcomes), res.Violation.Error())
		}
		return fmt.Sprintf("%d states, outcomes %v", res.States, outcomeKeys(res.Outcomes))
	}
	for _, c := range cells {
		want := verdict(c, 1)
		for _, workers := range []int{2, 8} {
			if got := verdict(c, workers); got != want {
				t.Fatalf("%s / %s (budget %d): %d workers differ from 1:\n--- got\n%s\n--- want\n%s",
					c.cfg.Name(), c.p.Name, c.budget, workers, got, want)
			}
		}
		if c.budget > 0 && !strings.HasPrefix(want, fmt.Sprintf("budget %d exhausted at %d states", c.budget, c.budget)) {
			t.Fatalf("%s / %s: budget %d not exhausted after exactly its nodes: %s", c.cfg.Name(), c.p.Name, c.budget, want)
		}
	}
}

// TestOracleStateLimitPropagates checks that an oracle budget
// exhaustion surfaces as *litmus.StateLimitError, distinguishable from
// both violations and the checker's own budget error.
func TestOracleStateLimitPropagates(t *testing.T) {
	var mp *litmus.Program
	for _, e := range litmus.Catalog() {
		if e.Program.Name == "MP" {
			mp = e.Program
		}
	}
	_, err := Check(machine.GD(), mp, Options{OracleStateLimit: 2})
	var sl *litmus.StateLimitError
	if !errors.As(err, &sl) {
		t.Fatalf("got %v, want *litmus.StateLimitError", err)
	}
	var be *BudgetError
	if errors.As(err, &be) {
		t.Fatal("oracle state-limit error must not look like a checker budget error")
	}
}

// TestProgramLimits rejects programs beyond the model's fixed
// capacities instead of silently truncating them.
func TestProgramLimits(t *testing.T) {
	big := &litmus.Program{Name: "too-wide", Vars: make([]litmus.VarClass, maxVars+1)}
	big.Threads = []litmus.Thread{{CU: 0, Ops: []litmus.Op{{Kind: litmus.OpLoad, Var: 0}}}}
	if _, err := Check(machine.GD(), big, Options{}); err == nil {
		t.Fatal("program with too many variables accepted")
	}
	many := &litmus.Program{Name: "too-threaded", Vars: []litmus.VarClass{litmus.Data}}
	for i := 0; i < maxThreads+1; i++ {
		many.Threads = append(many.Threads, litmus.Thread{CU: i, Ops: []litmus.Op{{Kind: litmus.OpLoad, Var: 0}}})
	}
	if _, err := Check(machine.GD(), many, Options{}); err == nil {
		t.Fatal("program with too many threads accepted")
	}
}

func keys(m map[string]litmus.Outcome) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
