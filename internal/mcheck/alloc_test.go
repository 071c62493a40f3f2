package mcheck

import (
	"runtime"
	"testing"

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
// built once, one explorer, no split) on perfbench's mcheck-catalog
// cells, one sub-benchmark each, reporting per-node cost:
//
//	go test ./internal/mcheck -run '^$' -bench ExploreDPOR
//	go test ./internal/mcheck -run '^$' -bench 'ExploreDPOR/MP\+preload/DD$'
func BenchmarkExploreDPOR(b *testing.B) {
	cells := []struct{ prog, cfg string }{
		{"ISA2+transitive", "DH"},
		{"IRIW+scoped", "GH"},
		{"MP+preload", "DD"},
		{"MP+preload", "DH+lazy"},
	}
	for _, c := range cells {
		b.Run(c.prog+"/"+c.cfg, func(b *testing.B) {
			p := catalogProgram(b, c.prog)
			cfg := configNamed(b, c.cfg)
			m, oracle, err := prepare(cfg, p, Options{})
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
		})
	}
}

// configNamed returns the configuration of Configs() named name.
func configNamed(t testing.TB, name string) machine.Config {
	t.Helper()
	for _, cfg := range Configs() {
		if cfg.Name() == name {
			return cfg
		}
	}
	t.Fatalf("no configuration named %s", name)
	return machine.Config{}
}
