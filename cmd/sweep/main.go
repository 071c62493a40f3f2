// Command sweep regenerates the paper's evaluation: every figure
// (2, 3, 4 — execution time, dynamic energy, network traffic) and every
// table (1-5). Its output is the source of EXPERIMENTS.md.
//
// Usage:
//
//	sweep -all          # everything (several minutes)
//	sweep -fig3         # one figure's three panels
//	sweep -table3       # parameter/latency validation
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"denovogpu/internal/cli"
	"denovogpu/internal/figures"
)

// Figure sweeps are minutes-long; tests stub these out.
var (
	sweepFig2  = figures.Fig2
	sweepFig3  = figures.Fig3
	sweepFig4  = figures.Fig4
	sweepGraph = figures.FigGraph
	sweepXDev  = figures.FigXDev
	sweepCliff = figures.XDevCliff
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// errWriter remembers the first write error so that emit failures —
// e.g. a closed pipe under `sweep -all | head` — surface in the exit
// code instead of being silently dropped by fmt.Fprintln. After the
// first failure it stops writing entirely.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, err
}

func run(args []string, rawStdout, stderr io.Writer) int {
	stdout := &errWriter{w: rawStdout}
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		all    = fs.Bool("all", false, "regenerate every figure and table")
		jobs   = fs.Int("j", 0, "matrix cells simulated in parallel (0 = GOMAXPROCS, 1 = serial)")
		fig2   = fs.Bool("fig2", false, "Figure 2: no-synchronization applications (G* vs D*)")
		fig3   = fs.Bool("fig3", false, "Figure 3: globally scoped synchronization (G* vs D*)")
		fig4   = fs.Bool("fig4", false, "Figure 4: locally scoped / hybrid synchronization (all five configs)")
		graphF = fs.Bool("graph", false, "graph analytics (beyond the paper): BFS/PR/SSSP crossover, fixed vs per-phase specialized")
		xdev   = fs.Bool("xdev", false, "multi-device (beyond the paper): 2-device sync suite + device-local vs cross-device sync cliff")
		devs   = fs.Int("devices", 2, "device count for the -xdev cliff experiment (the suite itself is the registered 2-device port)")
		table1 = fs.Bool("table1", false, "Table 1: protocol classification")
		table2 = fs.Bool("table2", false, "Table 2: feature comparison")
		table3 = fs.Bool("table3", false, "Table 3: parameters and measured latencies")
		table4 = fs.Bool("table4", false, "Table 4: benchmark inventory")
		table5 = fs.Bool("table5", false, "Table 5: related-work comparison")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if !(*all || *fig2 || *fig3 || *fig4 || *graphF || *xdev || *table1 || *table2 || *table3 || *table4 || *table5) {
		fs.Usage()
		return cli.ExitUsage
	}

	if *all || *table1 {
		fmt.Fprintln(stdout, "## Table 1 — protocol classification\n\n"+figures.Table1())
	}
	if *all || *table2 {
		fmt.Fprintln(stdout, "## Table 2 — feature comparison\n\n"+figures.Table2())
	}
	if *all || *table3 {
		fmt.Fprintln(stdout, "## Table 3 — parameters and measured latencies\n\n"+figures.Table3())
	}
	if *all || *table4 {
		fmt.Fprintln(stdout, "## Table 4 — benchmarks\n\n"+figures.Table4())
	}
	if *all || *table5 {
		fmt.Fprintln(stdout, "## Table 5 — related work\n\n"+figures.Table5())
	}

	cellFailed := false
	emit := func(title string, m *figures.Matrix, baseline string, label map[string]string) {
		if bench, config, err := m.FirstFailure(); err != nil {
			fmt.Fprintf(stderr, "sweep: %s: %s/%s: %v\n", title, bench, config, err)
			cli.EmitCellFailure(stderr, bench, config, -1, err.Error())
			cellFailed = true
			return
		}
		for _, panel := range []struct {
			sub string
			mt  figures.Metric
		}{{"a", figures.Exec}, {"b", figures.Energy}, {"c", figures.Traffic}} {
			fmt.Fprintf(stdout, "## %s%s — %s (normalized to %s)\n\n", title, panel.sub, panel.mt, baseline)
			fmt.Fprintln(stdout, m.FormatNormalizedTable(panel.mt, baseline, label))
		}
		fmt.Fprintf(stdout, "### %s energy breakdown (components, %% of %s total)\n\n", title, baseline)
		fmt.Fprintln(stdout, m.FormatBreakdown(figures.Energy, baseline))
		fmt.Fprintf(stdout, "### %s traffic breakdown (classes, %% of %s total)\n\n", title, baseline)
		fmt.Fprintln(stdout, m.FormatBreakdown(figures.Traffic, baseline))
	}

	gstar := map[string]string{"GD": "G*", "DD": "D*"}
	if *all || *fig2 {
		fmt.Fprintln(stdout, "Running Figure 2 sweep (10 apps x G*/D*)...")
		emit("Figure 2", sweepFig2(*jobs), "DD", gstar)
	}
	if *all || *fig3 {
		fmt.Fprintln(stdout, "Running Figure 3 sweep (4 global-sync benchmarks x G*/D*)...")
		emit("Figure 3", sweepFig3(*jobs), "GD", gstar)
	}
	if *all || *fig4 {
		fmt.Fprintln(stdout, "Running Figure 4 sweep (9 local-sync benchmarks x 5 configs)...")
		emit("Figure 4", sweepFig4(*jobs), "GD", nil)
	}
	if *all || *graphF {
		fmt.Fprintln(stdout, "Running graph-analytics sweep (3 workloads x GD/DD/DD+RO/SPEC)...")
		emit("Figure G", sweepGraph(*jobs), "GD", nil)
	}
	if *all || *xdev {
		fmt.Fprintln(stdout, "Running multi-device sweep (13 2-device sync benchmarks x GDx2/DDx2)...")
		emit("Figure X", sweepXDev(*jobs), "GDx2", nil)
		fmt.Fprintf(stdout, "## Cross-device sync cliff (%d devices)\n\n", *devs)
		if cliff, err := sweepCliff("DD", *devs, 200); err != nil {
			fmt.Fprintf(stderr, "sweep: cliff: %v\n", err)
			cellFailed = true
		} else {
			fmt.Fprintln(stdout, figures.FormatXDevCliff(cliff))
		}
	}
	// A simulation failing and the output pipe breaking are different
	// conditions for a caller: cell failures (already announced with a
	// machine-readable line) win the exit code.
	if cellFailed {
		return cli.ExitCellFailure
	}
	if stdout.err != nil {
		fmt.Fprintf(stderr, "sweep: writing output: %v\n", stdout.err)
		return cli.ExitFailure
	}
	return 0
}
