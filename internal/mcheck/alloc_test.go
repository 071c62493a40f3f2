package mcheck

import (
	"runtime"
	"testing"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
)

// TestDPORAllocationWall keeps the DPOR explorer allocation-free in
// steady state: per-depth state and frame buffers are reused, and trace
// labels are built only on a violation. Exploring MP+preload under DD
// (~53k nodes) may allocate fewer than one object per hundred nodes
// beyond the fixed setup (program validation, model, oracle), which is
// measured by the same Check stopped at a budget of one node. What
// remains is the first-visit growth of each depth's buffers, so the
// figure tracks the stack depth, not the node count; a return to
// per-node allocation overshoots the bound a hundredfold.
func TestDPORAllocationWall(t *testing.T) {
	mp := catalogProgram(t, "MP+preload")
	cfg := machine.DD()
	nodes := 0
	full := testing.AllocsPerRun(3, func() {
		res, err := Check(cfg, mp, Options{})
		if err != nil || res.Violation != nil {
			t.Fatalf("check: %v %v", err, res.Violation)
		}
		nodes = res.States
	})
	setup := testing.AllocsPerRun(3, func() {
		if _, err := Check(cfg, mp, Options{Budget: 1}); err == nil {
			t.Fatal("budget of one node did not stop the exploration")
		}
	})
	explore := full - setup
	t.Logf("%d nodes: %.0f allocations exploring, %.0f in setup", nodes, explore, setup)
	if bound := float64(nodes) / 100; explore >= bound {
		t.Fatalf("exploring %d nodes allocated %.0f objects, want < %.0f (nodes/100)", nodes, explore, bound)
	}
}

// BenchmarkExploreDPOR times the DPOR loop alone (model and oracle
// built once, one explorer, no split) on MP+preload under DD,
// reporting per-node cost:
//
//	go test ./internal/mcheck -run '^$' -bench ExploreDPOR
func BenchmarkExploreDPOR(b *testing.B) {
	mp := catalogProgram(b, "MP+preload")
	cfg := machine.DD()
	m, err := newModel(cfg, mp)
	if err != nil {
		b.Fatal(err)
	}
	oracle, err := litmus.Oracle(mp, cfg.Model, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	x := getExplorer()
	nodes := 0
	for i := 0; i < b.N; i++ {
		clear(x.seen)
		n, _, err := x.explore(m, oracle, &splitNode{}, 0, newLedger(DefaultBudget, 0, 1))
		if err != nil {
			b.Fatal(err)
		}
		nodes += n
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(nodes), "allocs/node")
}
