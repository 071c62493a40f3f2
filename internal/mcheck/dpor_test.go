package mcheck

import (
	"errors"
	"os"
	"sort"
	"sync/atomic"
	"testing"

	"denovogpu/internal/coherence"
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

// dporGapBudget is the DPOR budget of the cells in dporGap. They
// exceed the default budget (see EXPERIMENTS.md), so exploring them to
// it only ends in a skip the reference then decides; this budget ends
// them sooner, on the same skip.
const dporGapBudget = 2_000_000

// dporGap lists the cells DPOR cannot finish at the default budget.
// The list must shrink when the gap closes: a cell DPOR completes
// belongs back at the default budget, where its outcome set is
// compared.
var dporGap = map[string]bool{"DD/IRIW+scoped": true, "DD+RO/IRIW+scoped": true, "DH+lazy/IRIW+scoped": true}

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
// the default budget (dporGapBudget on the dporGap cells) and may
// exhaust it (IRIW+scoped under DD, DD+RO and DH+lazy does: see
// EXPERIMENTS.md), but only on a cell the reference completes, and
// wherever DPOR completes the outcome sets must be equal. At least 69
// cells must be compared that way.
func TestDPORConformance(t *testing.T) {
	full := os.Getenv("MCHECK_FULL") == "1"
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
			if !full && heavyPrograms[e.Program.Name] && cfg.Protocol == machine.ProtoDeNovo {
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
				opts := Options{}
				if dporGap[cfg.Name()+"/"+e.Program.Name] {
					opts.Budget = dporGapBudget
				}
				dpor, err := Check(cfg, e.Program, opts)
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

// TestDeepExecutionWidensClocks covers happens-before bitsets wider
// than one word, which no catalog cell reaches (their executions stay
// under 40 events). Two CUs each issuing eight global releases run 66
// events deep under GD, so the explorer widens its bitsets in the
// middle of the exploration. It must explore exactly what an explorer
// that was two words wide from the start explores, and reach the
// reference explorer's outcome set. Widening must also keep every
// recorded clock and footprint-bit event set: 100 synthetic events
// appended to a fresh explorer and to a three-word one give the same
// bitsets.
func TestDeepExecutionWidensClocks(t *testing.T) {
	p := &litmus.Program{Name: "deep-releases", Vars: []litmus.VarClass{litmus.Sync, litmus.Sync}}
	for ti := 0; ti < 2; ti++ {
		th := litmus.Thread{CU: ti}
		for i := 0; i < maxOpsPerThread; i++ {
			th.Ops = append(th.Ops, litmus.Op{Kind: litmus.OpSyncStore, Var: ti, Val: uint32(i + 1), Scope: coherence.ScopeGlobal})
		}
		p.Threads = append(p.Threads, th)
	}
	cfg := machine.GD()
	m, oracle, err := prepare(cfg, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	explore := func(x *explorer) (int, []string) {
		clear(x.seen)
		n, viol, err := x.explore(m, oracle, &splitNode{}, 0, newLedger(DefaultBudget, 0, 1))
		if err != nil || viol != nil {
			t.Fatalf("explore: %v %v", err, viol)
		}
		return n, outcomeKeys(outcomesUpTo([]*explorer{x}, 0))
	}
	fresh := &explorer{seen: make(map[outKey]seenOutcome)}
	n, keys := explore(fresh)
	if fresh.nw < 2 {
		t.Fatalf("executions reached %d events; the test needs more than 64", len(fresh.ev))
	}
	wide := &explorer{seen: make(map[outKey]seenOutcome)}
	wide.widen()
	wide.widen()
	if wn, wkeys := explore(wide); wn != n || !sameKeys(wkeys, keys) {
		t.Fatalf("widened mid-run: %d states, %d outcomes; two words from the start: %d states, %d outcomes", n, len(keys), wn, len(wkeys))
	}
	ref, err := checkReference(cfg, p, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if rk := outcomeKeys(ref.Outcomes); !sameKeys(keys, rk) {
		t.Fatalf("outcome sets differ:\n  dpor      (%d): %v\n  reference (%d): %v", len(keys), keys, len(rk), rk)
	}

	const events = 100 // appended with the cut above them: no race reversals
	grown, three := &explorer{}, &explorer{}
	for range 3 {
		three.widen()
	}
	for n := 0; n < events; n++ {
		fp := uint64(1)<<(n%5) | uint64(1)<<(5+n%3)
		grown.appendEvent(n, trans(n), fp, events)
		three.appendEvent(n, trans(n), fp, events)
	}
	word := func(x *explorer, rows []uint64, r, w int) uint64 {
		if w >= x.nw {
			return 0
		}
		return rows[r*x.nw+w]
	}
	for w := 0; w < three.nw; w++ {
		for n := 0; n < events; n++ {
			if g, h := word(grown, grown.clocks, n, w), word(three, three.clocks, n, w); g != h {
				t.Fatalf("event %d clock word %d: %#x grown, %#x three words wide", n, w, g, h)
			}
		}
		for b := 0; b < 64; b++ {
			if g, h := word(grown, grown.byBit, b, w), word(three, three.byBit, b, w); g != h {
				t.Fatalf("footprint bit %d events word %d: %#x grown, %#x three words wide", b, w, g, h)
			}
		}
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
