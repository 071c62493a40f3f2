package mcheck

import (
	"errors"
	"os"
	"sort"
	"sync/atomic"
	"testing"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
)

// outcomeKeys returns the sorted outcome-key set of a result.
func outcomeKeys(m map[string]litmus.Outcome) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// explorers are the shipped DPOR explorer and the test-only
// reference, for tests that run both on one cell.
var explorers = []struct {
	name  string
	check func(cfg machine.Config, p *litmus.Program, budget int) (*Result, error)
}{
	{"dpor", func(cfg machine.Config, p *litmus.Program, budget int) (*Result, error) {
		return Check(cfg, p, Options{Budget: budget})
	}},
	{"reference", func(cfg machine.Config, p *litmus.Program, budget int) (*Result, error) {
		return checkReference(cfg, p, budget, false)
	}},
}

// referenceFullBudget is the reference explorer's budget in the
// full-depth mode: every catalog cell completes under it (IRIW+scoped
// under DH+lazy, the largest, in 233,259 states).
const referenceFullBudget = 2_000_000

// TestDPORConformance is the differential wall for the stateless
// source-DPOR explorer: over the full litmus catalog × every
// configuration (the litmus six plus DH+lazy), DPOR and the reference
// sleep-set explorer must agree on the verdict and on the exact set of
// reachable terminal outcomes.
//
// By default the heavy DeNovo cells are skipped, exactly as in
// TestCatalogClean: each costs minutes of DPOR wall. MCHECK_FULL=1
// lifts the skip (the CI mcheck job runs it that way):
//
//	MCHECK_FULL=1 go test ./internal/mcheck -run TestDPORConformance -v
//
// Then all 72 cells run under both explorers. The reference must
// complete every cell clean within referenceFullBudget; DPOR runs at
// the default budget and may exhaust it (IRIW+scoped under DD, DD+RO
// and DH+lazy does: see EXPERIMENTS.md), but only on a cell the
// reference completes, and wherever DPOR completes the outcome sets
// must be equal. At least 69 cells must be compared that way.
func TestDPORConformance(t *testing.T) {
	full := os.Getenv("MCHECK_FULL") == "1"
	heavy := map[string]bool{"IRIW+sync": true, "IRIW+scoped": true, "ISA2+transitive": true}
	var ran, compared atomic.Int32
	// Cleanup runs once every parallel cell below has finished.
	t.Cleanup(func() {
		cells := int32(len(Configs()) * len(litmus.Catalog()))
		if full && ran.Load() == cells && compared.Load() < 69 {
			t.Errorf("outcome sets compared on %d of %d cells, want at least 69", compared.Load(), cells)
		}
		t.Logf("outcome sets equal on %d of %d cells run", compared.Load(), ran.Load())
	})
	for _, cfg := range Configs() {
		for _, e := range litmus.Catalog() {
			if !full && heavy[e.Program.Name] && cfg.Protocol == machine.ProtoDeNovo {
				continue
			}
			t.Run(cfg.Name()+"/"+e.Program.Name, func(t *testing.T) {
				t.Parallel()
				ran.Add(1)
				refBudget := 0
				if full {
					refBudget = referenceFullBudget
				}
				ref, err := checkReference(cfg, e.Program, refBudget, false)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				if full && ref.Violation != nil {
					t.Fatalf("reference: %v", ref.Violation)
				}
				dpor, err := Check(cfg, e.Program, Options{})
				var be *BudgetError
				if full && errors.As(err, &be) {
					t.Logf("dpor: %v; reference completed in %d states, %d outcomes",
						err, ref.States, len(ref.Outcomes))
					return
				}
				if err != nil {
					t.Fatalf("dpor: %v", err)
				}
				if (dpor.Violation == nil) != (ref.Violation == nil) {
					t.Fatalf("verdicts differ: dpor %v, reference %v", dpor.Violation, ref.Violation)
				}
				if dpor.Violation != nil {
					return // both found one; traces legitimately differ
				}
				dk, rk := outcomeKeys(dpor.Outcomes), outcomeKeys(ref.Outcomes)
				if !sameKeys(dk, rk) {
					t.Fatalf("outcome sets differ:\n  dpor      (%d): %v\n  reference (%d): %v",
						len(dk), dk, len(rk), rk)
				}
				compared.Add(1)
				t.Logf("dpor %d vs reference %d states, %d outcomes", dpor.States, ref.States, len(dk))
			})
		}
	}
}

// TestDPORConformanceUnderFault runs the differential wall's
// violation side: with the acquire-invalidation fault injected, both
// explorers must flush out the stale read on the preload shape as an
// oracle-conformance violation.
func TestDPORConformanceUnderFault(t *testing.T) {
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
		for _, ex := range explorers {
			res, err := ex.check(cfg, mp, 0)
			if err != nil {
				t.Fatalf("%s/%s: %v", base.Name(), ex.name, err)
			}
			if res.Violation == nil || res.Violation.Invariant != "oracle-conformance" {
				t.Fatalf("%s/%s: want oracle-conformance violation, got %v", base.Name(), ex.name, res.Violation)
			}
		}
	}
}

// TestShardDeterminism is the shard-split guarantee: a sharded
// exploration (any unit count, any worker count) reports the same
// verdict and the same terminal-outcome set as a serial one, and
// reruns of the same split are byte-identical (same States total).
func TestShardDeterminism(t *testing.T) {
	shapes := map[string]bool{"MP": true, "SB+sync": true, "CoRR": true, "LB": true, "WRC": true}
	for _, cfg := range Configs() {
		for _, e := range litmus.Catalog() {
			if !shapes[e.Program.Name] {
				continue
			}
			serial, err := Check(cfg, e.Program, Options{})
			if err != nil {
				t.Fatalf("%s / %s serial: %v", cfg.Name(), e.Program.Name, err)
			}
			s1, err := CheckSharded(cfg, e.Program, Options{}, 1, 1)
			if err != nil {
				t.Fatalf("%s / %s shards=1: %v", cfg.Name(), e.Program.Name, err)
			}
			// shards <= 1 must be *exactly* the serial exploration.
			if s1.States != serial.States || !sameKeys(outcomeKeys(s1.Outcomes), outcomeKeys(serial.Outcomes)) {
				t.Fatalf("%s / %s: shards=1 (%d states) differs from serial (%d states)",
					cfg.Name(), e.Program.Name, s1.States, serial.States)
			}
			s8a, err := CheckSharded(cfg, e.Program, Options{}, 8, 1)
			if err != nil {
				t.Fatalf("%s / %s shards=8 workers=1: %v", cfg.Name(), e.Program.Name, err)
			}
			s8b, err := CheckSharded(cfg, e.Program, Options{}, 8, 8)
			if err != nil {
				t.Fatalf("%s / %s shards=8 workers=8: %v", cfg.Name(), e.Program.Name, err)
			}
			if s8a.States != s8b.States {
				t.Fatalf("%s / %s: worker count changed the merged state total (%d vs %d)",
					cfg.Name(), e.Program.Name, s8a.States, s8b.States)
			}
			if (s8a.Violation == nil) != (serial.Violation == nil) {
				t.Fatalf("%s / %s: sharded verdict %v, serial %v",
					cfg.Name(), e.Program.Name, s8a.Violation, serial.Violation)
			}
			if !sameKeys(outcomeKeys(s8a.Outcomes), outcomeKeys(serial.Outcomes)) {
				t.Fatalf("%s / %s: sharded outcomes %v, serial %v",
					cfg.Name(), e.Program.Name, outcomeKeys(s8a.Outcomes), outcomeKeys(serial.Outcomes))
			}
		}
	}
}

// TestShardSplitShapes pins the split-phase contract: units cover the
// frontier, prefixes replay (CheckShard accepts every unit), and the
// merged result equals running the units by hand.
func TestShardSplitShapes(t *testing.T) {
	var mp *litmus.Program
	for _, e := range litmus.Catalog() {
		if e.Program.Name == "MP" {
			mp = e.Program
		}
	}
	cfg := machine.DD()
	plan, err := Split(cfg, mp, Options{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Units) < 8 {
		t.Fatalf("split produced %d units, want >= 8", len(plan.Units))
	}
	var results []*Result
	for i, u := range plan.Units {
		if len(u.Prefix) == 0 {
			t.Fatalf("unit %d has an empty prefix", i)
		}
		r, err := CheckShard(cfg, mp, Options{}, u)
		if err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
		results = append(results, r)
	}
	merged := MergeShardResults(plan, results)
	want := plan.States
	for _, r := range results {
		want += r.States
	}
	if merged.States != want {
		t.Fatalf("merged states %d, want the sum %d", merged.States, want)
	}
	serial, err := Check(cfg, mp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameKeys(outcomeKeys(merged.Outcomes), outcomeKeys(serial.Outcomes)) {
		t.Fatalf("merged outcomes %v, serial %v", outcomeKeys(merged.Outcomes), outcomeKeys(serial.Outcomes))
	}
}

// TestShardFaultFindsViolation: a sharded run must still catch the
// injected fault, reported from the lowest-indexed unit.
func TestShardFaultFindsViolation(t *testing.T) {
	var mp *litmus.Program
	for _, e := range litmus.Catalog() {
		if e.Program.Name == "MP+preload" {
			mp = e.Program
		}
	}
	cfg := machine.DD()
	cfg.FaultDisableAcquireInval = true
	res, err := CheckSharded(cfg, mp, Options{}, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || res.Violation.Invariant != "oracle-conformance" {
		t.Fatalf("sharded run missed the injected fault: %v", res.Violation)
	}
	// Determinism: rerunning reports the identical counterexample.
	res2, err := CheckSharded(cfg, mp, Options{}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Violation == nil || res2.Violation.Detail != res.Violation.Detail {
		t.Fatalf("sharded violation not deterministic:\n  %v\n  %v", res.Violation, res2.Violation)
	}
}

// TestBudgetErrorProgress: the typed budget error carries the states
// explored and elapsed wall time at exhaustion, for both explorers.
func TestBudgetErrorProgress(t *testing.T) {
	var mp *litmus.Program
	for _, e := range litmus.Catalog() {
		if e.Program.Name == "MP" {
			mp = e.Program
		}
	}
	for _, ex := range explorers {
		_, err := ex.check(machine.GD(), mp, 10)
		be, ok := err.(*BudgetError)
		if !ok {
			t.Fatalf("%s: got %v, want *BudgetError", ex.name, err)
		}
		if be.States != 10 {
			t.Fatalf("%s: budget error reports %d states, want 10", ex.name, be.States)
		}
		if be.Elapsed <= 0 {
			t.Fatalf("%s: budget error elapsed %v, want > 0", ex.name, be.Elapsed)
		}
	}
}
