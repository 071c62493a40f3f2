package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"denovogpu"
	"denovogpu/internal/cli"
	"denovogpu/internal/sweepd"
)

// runCheckCmd is the `sweepd check` subcommand: model checking through
// the sweep service. Each (program, configuration) is one check cell,
// explored whole by mcheck.Check on one budget. The cells are submitted
// as one job — cached, leased and executed exactly like simulation
// cells, one cell per worker slot — and each cell's canonical
// CheckReport is written and summarized. A report, States included,
// depends on neither the machine nor the core count that ran it, so
// `sweepd check -local` (in-process, one cell at a time) and a served
// run write byte-identical report files; that byte equality is the
// service's end-to-end test for model checking, the way `diff -r`
// against the goldens is the simulator sweep's.
func runCheckCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		server   = fs.String("server", "http://localhost:8080", "coordinator base URL")
		local    = fs.Bool("local", false, "run in-process, one cell at a time (no coordinator); the reference for served runs")
		programs = fs.String("programs", "", "comma-separated catalog litmus programs (default: the whole catalog)")
		configs  = fs.String("configs", "", "comma-separated configuration names (default: the full model-checking set incl. the DH lazy ablation)")
		budget   = fs.Int("budget", 0, "exploration node budget per cell, local or served alike (0 = the mcheck default)")
		outDir   = fs.String("out", "", "write each cell's canonical report JSON into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "sweepd: unexpected arguments %q\n", fs.Args())
		return cli.ExitUsage
	}

	progNames := denovogpu.LitmusProgramNames()
	if *programs != "" {
		progNames = strings.Split(*programs, ",")
	}
	cfgSpecs := denovogpu.CheckConfigSpecs()
	if *configs != "" {
		cfgSpecs = nil
		for _, name := range strings.Split(*configs, ",") {
			cfgSpecs = append(cfgSpecs, denovogpu.ConfigSpec{Name: name})
		}
	}

	var cells []denovogpu.CellSpec
	for _, p := range progNames {
		for _, c := range cfgSpecs {
			cells = append(cells, denovogpu.CellSpec{
				Config: c, Program: p, Budget: *budget,
			})
		}
	}
	for i, s := range cells {
		if err := s.Validate(); err != nil {
			fmt.Fprintf(stderr, "sweepd: check cell %d: %v\n", i, err)
			return cli.ExitUsage
		}
	}

	if *local {
		return runCheckLocal(cells, *outDir, stdout, stderr)
	}
	return runCheckServed(cells, *server, *outDir, stdout, stderr)
}

// runCheckLocal is the in-process reference: every cell run in turn.
func runCheckLocal(cells []denovogpu.CellSpec, outDir string, stdout, stderr io.Writer) int {
	for i, s := range cells {
		data, _, err := s.Run()
		if err != nil {
			return emitCellFailure(stderr, s, i, err.Error())
		}
		if code := finishCheckCell(s, i, data, outDir, stdout, stderr); code != 0 {
			return code
		}
	}
	fmt.Fprintf(stdout, "sweepd: checked %d cells serially\n", len(cells))
	return 0
}

// runCheckServed submits every cell as one job and reports each cell
// from the report the coordinator holds for it.
func runCheckServed(cells []denovogpu.CellSpec, server, outDir string, stdout, stderr io.Writer) int {
	ctx, cancel := signalCtx()
	defer cancel()
	client := &sweepd.Client{Base: server}
	sr, err := client.Submit(ctx, denovogpu.MatrixSpec{Cells: cells})
	if err != nil {
		fmt.Fprintf(stderr, "sweepd: submit: %v\n", err)
		return cli.ExitFailure
	}
	fmt.Fprintf(stdout, "sweepd: submitted job %s (%d cells)\n", sr.Status.ID, len(cells))
	status, err := client.Wait(ctx, sr.Status.ID, 100*time.Millisecond)
	if err != nil {
		fmt.Fprintf(stderr, "sweepd: %v\n", err)
		return cli.ExitFailure
	}
	if status.State != "done" {
		var failed denovogpu.CellSpec
		if status.ErrorCell >= 0 && status.ErrorCell < len(cells) {
			failed = cells[status.ErrorCell]
		}
		return emitCellFailure(stderr, failed, status.ErrorCell, status.Error)
	}
	fmt.Fprintf(stdout, "sweepd: job %s done: %d cells (%d cache hits) in %.0f ms\n",
		status.ID, status.Done, status.CacheHits, status.WallMS)

	for i, s := range cells {
		data, err := client.CellReport(ctx, status.ID, i)
		if err != nil {
			return emitCellFailure(stderr, s, i, err.Error())
		}
		if code := finishCheckCell(s, i, data, outDir, stdout, stderr); code != 0 {
			return code
		}
	}
	fmt.Fprintf(stdout, "sweepd: checked %d cells\n", len(cells))
	return 0
}

// finishCheckCell writes cell i's report bytes under reportFileName,
// prints its summary line, and returns a non-zero exit code for a
// violation or a failure.
func finishCheckCell(s denovogpu.CellSpec, i int, data []byte, outDir string, stdout, stderr io.Writer) int {
	r, err := denovogpu.UnmarshalCheckReport(data)
	if err == nil && outDir != "" {
		if err = os.MkdirAll(outDir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(outDir, reportFileName(s)), data, 0o644)
		}
	}
	if err != nil {
		return emitCellFailure(stderr, s, i, err.Error())
	}
	if r.Violation != nil {
		fmt.Fprintf(stdout, "  %-16s %-8s VIOLATION: %s: %s\n", r.Program, r.Config, r.Violation.Invariant, r.Violation.Detail)
		return cli.ExitCellFailure
	}
	fmt.Fprintf(stdout, "  %-16s %-8s clean (%d outcomes, %d states)\n", r.Program, r.Config, len(r.Outcomes), r.States)
	return 0
}
