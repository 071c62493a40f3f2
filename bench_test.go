// Benchmark harness: one benchmark function per paper table/figure.
// Each runs the corresponding experiment matrix and reports the paper's
// metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every number EXPERIMENTS.md records. The "sim_" metrics
// are simulated quantities (cycles, picojoules, flit crossings), not
// wall-clock performance of the simulator itself.
package denovogpu_test

import (
	"fmt"
	"testing"

	"denovogpu"
	"denovogpu/internal/figures"
)

// report attaches one run's three headline metrics to the bench.
func report(b *testing.B, suffix string, r *figures.Run) {
	b.Helper()
	if r == nil || r.Err != nil {
		b.Fatalf("%s: %v", suffix, r.Err)
	}
	b.ReportMetric(float64(r.Report.Cycles), "sim_cycles_"+suffix)
	b.ReportMetric(r.Report.TotalEnergyPJ()/1e6, "sim_uJ_"+suffix)
	b.ReportMetric(float64(r.Report.TotalFlits()), "sim_flits_"+suffix)
}

// reportAverages attaches the per-config normalized averages (percent
// of baseline) — the numbers the paper quotes in its prose.
func reportAverages(b *testing.B, m *figures.Matrix, baseline string) {
	b.Helper()
	for _, mt := range []figures.Metric{figures.Exec, figures.Energy, figures.Traffic} {
		avg := figures.Average(m.Normalized(mt, baseline), m.Configs)
		for _, cfg := range m.Configs {
			name := map[figures.Metric]string{
				figures.Exec: "avg_exec_pct_", figures.Energy: "avg_energy_pct_", figures.Traffic: "avg_traffic_pct_",
			}[mt] + cfg
			b.ReportMetric(avg[cfg], name)
		}
	}
}

// BenchmarkFig2 regenerates Figure 2 (a: execution time, b: dynamic
// energy, c: network traffic) — ten no-synchronization applications
// under G* and D*, normalized to D*. Paper: G* ≈ D* (within ~1%), D*
// ~5% lower traffic, with a large LAVA traffic gap.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := figures.Fig2(0)
		if err := m.FirstErr(); err != nil {
			b.Fatal(err)
		}
		reportAverages(b, m, "DD")
		report(b, "LAVA_GD", m.Get("LAVA", "GD"))
		report(b, "LAVA_DD", m.Get("LAVA", "DD"))
	}
}

// BenchmarkFig3 regenerates Figure 3 — four globally scoped
// synchronization microbenchmarks under G* and D*, normalized to G*.
// Paper: D* at 72% execution time, 49% energy, 19% traffic on average.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := figures.Fig3(0)
		if err := m.FirstErr(); err != nil {
			b.Fatal(err)
		}
		reportAverages(b, m, "GD")
	}
}

// BenchmarkFig4 regenerates Figure 4 — nine locally scoped / hybrid
// synchronization benchmarks under all five configurations, normalized
// to GD. Paper: GH ~46% faster than GD; GH modestly (~6%) ahead of DD;
// DD+RO ≈ GH; DH best overall.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := figures.Fig4(0)
		if err := m.FirstErr(); err != nil {
			b.Fatal(err)
		}
		reportAverages(b, m, "GD")
	}
}

// BenchmarkTable3Latencies validates the latency ranges of Table 3.
func BenchmarkTable3Latencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range figures.Table3Latencies() {
			b.ReportMetric(float64(r.Min), "cyc_min_"+sanitize(r.What))
			b.ReportMetric(float64(r.Max), "cyc_max_"+sanitize(r.What))
		}
	}
}

func sanitize(s string) string {
	out := []rune(s)
	for i, r := range out {
		if r == ' ' {
			out[i] = '_'
		}
	}
	return string(out)
}

// BenchmarkAblationStoreBuffer sweeps the store-buffer size on LAVA
// (DESIGN.md ablation 1): the GPU protocol's traffic blows up once the
// accumulator set no longer fits, while DeNovo is insensitive.
func BenchmarkAblationStoreBuffer(b *testing.B) {
	for _, entries := range []int{64, 256, 1024} {
		entries := entries
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, mk := range []func() denovogpu.Config{denovogpu.GD, denovogpu.DD} {
					cfg := mk()
					cfg.SBEntries = entries
					rep, err := denovogpu.RunByName(cfg, "LAVA")
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(rep.TotalFlits()), "sim_flits_"+cfg.Name())
					b.ReportMetric(float64(rep.Cycles), "sim_cycles_"+cfg.Name())
				}
			}
		})
	}
}

// BenchmarkAblationReadOnlyRegion isolates the DD -> DD+RO delta on the
// barrier benchmark, whose read-only coefficient table is reloaded
// after every acquire under plain DD but survives under DD+RO.
func BenchmarkAblationReadOnlyRegion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mk := range []func() denovogpu.Config{denovogpu.DD, denovogpu.DDRO} {
			cfg := mk()
			rep, err := denovogpu.RunByName(cfg, "TBEX_LG")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(rep.Cycles), "sim_cycles_"+rep.Config)
			b.ReportMetric(float64(rep.TotalFlits()), "sim_flits_"+rep.Config)
		}
	}
}

// BenchmarkAblationL1Size sweeps the L1 capacity on the tree barrier,
// whose per-iteration exchange working set stresses residency:
// DeNovo's registered-data reuse depends on written working sets
// staying resident, so small L1s force writebacks and erode its
// advantage.
func BenchmarkAblationL1Size(b *testing.B) {
	for _, kb := range []int{4, 8, 32} {
		kb := kb
		b.Run(fmt.Sprintf("l1=%dKB", kb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, mk := range []func() denovogpu.Config{denovogpu.GD, denovogpu.DD} {
					cfg := mk()
					cfg.L1Bytes = kb * 1024
					rep, err := denovogpu.RunByName(cfg, "TB_LG")
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(rep.Cycles), "sim_cycles_"+cfg.Name())
					b.ReportMetric(float64(rep.Stats.Get("l1.writebacks")), "sim_writebacks_"+cfg.Name())
				}
			}
		})
	}
}
