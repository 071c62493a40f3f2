// Package figures regenerates every table and figure of the paper's
// evaluation: it runs the benchmark x configuration matrix, normalizes
// measurements the way each figure does, and renders text/markdown
// tables. cmd/sweep drives it from the command line; the top-level
// benchmark harness (bench_test.go) drives it from go test -bench.
package figures

import (
	"fmt"
	"sort"
	"strings"

	"denovogpu"
	"denovogpu/internal/stats"
	"denovogpu/internal/workload"
)

// Run is one (benchmark, configuration) measurement.
type Run struct {
	Bench  string
	Config string
	Report denovogpu.Report
	Err    error
}

// Matrix holds the results of a figure's benchmark x config sweep,
// indexed [bench][config].
type Matrix struct {
	Benches []string
	Configs []string
	Runs    map[string]map[string]*Run
}

// Get returns a run (nil if missing).
func (m *Matrix) Get(bench, config string) *Run {
	if row, ok := m.Runs[bench]; ok {
		return row[config]
	}
	return nil
}

// FirstErr returns the first failed run, if any.
func (m *Matrix) FirstErr() error {
	if b, c, err := m.FirstFailure(); err != nil {
		return fmt.Errorf("%s/%s: %w", b, c, err)
	}
	return nil
}

// FirstFailure returns the first failed run's coordinates and error,
// in bench-major sweep order ("" , "", nil when every run succeeded).
// Commands use the coordinates for their machine-readable cell-failure
// records.
func (m *Matrix) FirstFailure() (bench, config string, err error) {
	for _, b := range m.Benches {
		for _, c := range m.Configs {
			if r := m.Get(b, c); r != nil && r.Err != nil {
				return b, c, r.Err
			}
		}
	}
	return "", "", nil
}

// Sweep runs every benchmark under every configuration, in parallel
// across (bench, config) pairs with GOMAXPROCS workers. Each simulation
// is single-threaded and independent, so parallelism is safe and scales
// to the machine.
func Sweep(benches []string, configs []denovogpu.Config) *Matrix {
	return SweepN(benches, configs, 0)
}

// SweepN is Sweep with an explicit worker bound (<= 0 selects
// runtime.GOMAXPROCS(0), 1 runs serially). All cells are attempted even
// if some fail; per-cell errors land in the Matrix for FirstErr.
func SweepN(benches []string, configs []denovogpu.Config, workers int) *Matrix {
	m := &Matrix{Runs: make(map[string]map[string]*Run)}
	m.Benches = append(m.Benches, benches...)
	for _, c := range configs {
		m.Configs = append(m.Configs, c.Name())
	}
	var cells []denovogpu.MatrixCell
	for _, b := range benches {
		m.Runs[b] = make(map[string]*Run)
		w, err := denovogpu.WorkloadByName(b)
		if err != nil {
			for _, c := range configs {
				m.Runs[b][c.Name()] = &Run{Bench: b, Config: c.Name(), Err: err}
			}
			continue
		}
		for _, c := range configs {
			cells = append(cells, denovogpu.MatrixCell{Config: c, Workload: w})
		}
	}
	results, _ := denovogpu.RunMatrix(cells, denovogpu.MatrixOptions{Workers: workers, KeepGoing: true})
	for i, cell := range cells {
		m.Runs[cell.Workload.Name][cell.Config.Name()] = &Run{
			Bench:  cell.Workload.Name,
			Config: cell.Config.Name(),
			Report: results[i].Report,
			Err:    results[i].Err,
		}
	}
	return m
}

// Metric selects one of the paper's three measurements.
type Metric int

const (
	Exec Metric = iota
	Energy
	Traffic
)

func (mt Metric) String() string {
	switch mt {
	case Exec:
		return "execution time"
	case Energy:
		return "dynamic energy"
	default:
		return "network traffic"
	}
}

func value(r *Run, mt Metric) float64 {
	switch mt {
	case Exec:
		return float64(r.Report.Cycles)
	case Energy:
		return r.Report.TotalEnergyPJ()
	default:
		return float64(r.Report.TotalFlits())
	}
}

// Normalized returns bench x config values normalized to the given
// baseline config (percent, baseline = 100).
func (m *Matrix) Normalized(mt Metric, baseline string) map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	for _, b := range m.Benches {
		base := m.Get(b, baseline)
		if base == nil || base.Err != nil {
			continue
		}
		bv := value(base, mt)
		row := make(map[string]float64)
		for _, c := range m.Configs {
			r := m.Get(b, c)
			if r == nil || r.Err != nil {
				continue
			}
			row[c] = 100 * value(r, mt) / bv
		}
		out[b] = row
	}
	return out
}

// Average returns the arithmetic mean of normalized values per config
// (the paper reports arithmetic averages of normalized metrics).
func Average(norm map[string]map[string]float64, configs []string) map[string]float64 {
	avg := make(map[string]float64)
	for _, c := range configs {
		var sum float64
		var n int
		for _, row := range norm {
			if v, ok := row[c]; ok {
				sum += v
				n++
			}
		}
		if n > 0 {
			avg[c] = sum / float64(n)
		}
	}
	return avg
}

// FormatNormalizedTable renders one metric's normalized table with an
// AVG row, in markdown.
func (m *Matrix) FormatNormalizedTable(mt Metric, baseline string, label map[string]string) string {
	norm := m.Normalized(mt, baseline)
	var b strings.Builder
	fmt.Fprintf(&b, "| benchmark |")
	for _, c := range m.Configs {
		name := c
		if label != nil && label[c] != "" {
			name = label[c]
		}
		fmt.Fprintf(&b, " %s |", name)
	}
	fmt.Fprintf(&b, "\n|---|")
	for range m.Configs {
		fmt.Fprintf(&b, "---|")
	}
	fmt.Fprintln(&b)
	for _, bench := range m.Benches {
		fmt.Fprintf(&b, "| %s |", bench)
		for _, c := range m.Configs {
			if v, ok := norm[bench][c]; ok {
				fmt.Fprintf(&b, " %.0f%% |", v)
			} else {
				fmt.Fprintf(&b, " — |")
			}
		}
		fmt.Fprintln(&b)
	}
	avg := Average(norm, m.Configs)
	fmt.Fprintf(&b, "| **AVG** |")
	for _, c := range m.Configs {
		fmt.Fprintf(&b, " **%.0f%%** |", avg[c])
	}
	fmt.Fprintln(&b)
	return b.String()
}

// FormatBreakdown renders per-benchmark component breakdowns (energy by
// component or traffic by class) as percentages of the baseline total,
// mirroring the paper's stacked bars.
func (m *Matrix) FormatBreakdown(mt Metric, baseline string) string {
	var b strings.Builder
	var parts []string
	if mt == Energy {
		for c := stats.Component(0); c < stats.NumComponents; c++ {
			parts = append(parts, c.String())
		}
	} else {
		for c := stats.TrafficClass(0); c < stats.NumTrafficClasses; c++ {
			parts = append(parts, c.String())
		}
	}
	fmt.Fprintf(&b, "| benchmark | config |")
	for _, p := range parts {
		fmt.Fprintf(&b, " %s |", p)
	}
	fmt.Fprintf(&b, " total |\n|---|---|")
	for range parts {
		fmt.Fprintf(&b, "---|")
	}
	fmt.Fprintf(&b, "---|\n")
	for _, bench := range m.Benches {
		base := m.Get(bench, baseline)
		if base == nil || base.Err != nil {
			continue
		}
		bv := value(base, mt)
		for _, c := range m.Configs {
			r := m.Get(bench, c)
			if r == nil || r.Err != nil {
				continue
			}
			fmt.Fprintf(&b, "| %s | %s |", bench, c)
			if mt == Energy {
				for comp := stats.Component(0); comp < stats.NumComponents; comp++ {
					fmt.Fprintf(&b, " %.0f%% |", 100*r.Report.EnergyPJ[comp]/bv)
				}
			} else {
				for cl := stats.TrafficClass(0); cl < stats.NumTrafficClasses; cl++ {
					fmt.Fprintf(&b, " %.0f%% |", 100*float64(r.Report.Flits[cl])/bv)
				}
			}
			fmt.Fprintf(&b, " %.0f%% |\n", 100*value(r, mt)/bv)
		}
	}
	return b.String()
}

// Figure-specific sweeps, matching the paper's groupings exactly.

// fig2Benches is the paper's Figure 2 ordering.
var fig2Benches = []string{"BP", "PF", "LUD", "NW", "SGEMM", "ST", "HS", "NN", "SRAD", "LAVA"}

// fig3Benches is the paper's Figure 3 ordering.
var fig3Benches = []string{"FAM_G", "SLM_G", "SPM_G", "SPMBO_G"}

// fig4Benches is the paper's Figure 4 ordering.
var fig4Benches = []string{"SPM_L", "SPMBO_L", "FAM_L", "SLM_L", "SS_L", "SSBO_L", "TBEX_LG", "TB_LG", "UTS"}

// Fig2 runs the no-synchronization applications under G* and D*
// (HRF changes nothing without local sync, so GD and DD stand for G*
// and D*). The paper normalizes to D*. workers bounds the cell pool
// (<= 0 selects GOMAXPROCS).
func Fig2(workers int) *Matrix {
	return SweepN(fig2Benches, []denovogpu.Config{denovogpu.GD(), denovogpu.DD()}, workers)
}

// Fig3 runs the globally scoped synchronization microbenchmarks under
// G* and D*, normalized to G*.
func Fig3(workers int) *Matrix {
	return SweepN(fig3Benches, []denovogpu.Config{denovogpu.GD(), denovogpu.DD()}, workers)
}

// Fig4 runs the locally scoped / hybrid synchronization benchmarks
// under all five configurations, normalized to GD.
func Fig4(workers int) *Matrix {
	return SweepN(fig4Benches, denovogpu.AllConfigs(), workers)
}

// graphBenches is the graph-analytics family (beyond the paper),
// ordered by how strongly their pull phases favour DeNovo ownership.
var graphBenches = []string{"BFS", "PR", "SSSP"}

// FigGraph runs the graph-analytics crossover study: each workload
// under the two fixed paper endpoints (GD, DD), the best fixed DeNovo
// variant (DD+RO), and the per-phase specialized extension (SPEC:
// writethrough push, DeNovo pull), normalized to GD. The specialized
// column beating every fixed column is the study's headline result.
func FigGraph(workers int) *Matrix {
	return SweepN(graphBenches, []denovogpu.Config{
		denovogpu.GD(), denovogpu.DD(), denovogpu.DDRO(), denovogpu.Specialized(),
	}, workers)
}

// Fig2Benches etc. expose the orderings for external reporting.
func Fig2Benches() []string  { return append([]string(nil), fig2Benches...) }
func Fig3Benches() []string  { return append([]string(nil), fig3Benches...) }
func Fig4Benches() []string  { return append([]string(nil), fig4Benches...) }
func GraphBenches() []string { return append([]string(nil), graphBenches...) }

// Table4 renders the benchmark inventory.
func Table4() string {
	var b strings.Builder
	fmt.Fprintf(&b, "| benchmark | category | input |\n|---|---|---|\n")
	names := workload.Names()
	sort.Slice(names, func(i, j int) bool {
		wi, _ := workload.Get(names[i])
		wj, _ := workload.Get(names[j])
		if wi.Category != wj.Category {
			return wi.Category < wj.Category
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		w, _ := workload.Get(n)
		fmt.Fprintf(&b, "| %s | %s | %s |\n", w.Name, w.Category, w.Input)
	}
	return b.String()
}
