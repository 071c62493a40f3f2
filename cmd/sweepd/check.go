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

// runCheckCmd is the `sweepd check` subcommand: model-checking through
// the sweep service. Each (program, configuration) cell is split
// client-side into prefix work units (mcheck.Split via
// api.SplitCheckCell), the units are submitted as one job — cached,
// leased and executed exactly like simulation cells — and the per-unit
// reports merge into one verdict per cell. The verdict excludes the
// shard-count-dependent States total, so `sweepd check -local` (an
// in-process run, one whole cell at a time) and a sharded run across
// any number of workers write byte-identical verdict files for clean
// programs; that byte equality is the sharded checker's end-to-end
// correctness test, the same way `diff -r` against the goldens is the
// simulator sweep's.
func runCheckCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		server   = fs.String("server", "http://localhost:8080", "coordinator base URL")
		local    = fs.Bool("local", false, "run in-process, one whole cell at a time (no coordinator); the reference for sharded runs")
		programs = fs.String("programs", "", "comma-separated catalog litmus programs (default: the whole catalog)")
		configs  = fs.String("configs", "", "comma-separated configuration names (default: the full model-checking set incl. the DH lazy ablation)")
		budget   = fs.Int("budget", 0, "exploration node budget — per shard in a sharded run (0 = the mcheck default)")
		shards   = fs.Int("shards", 4, "prefix work units per cell in server mode (branching permitting)")
		outDir   = fs.String("out", "", "write each cell's canonical verdict JSON into this directory")
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
	return runCheckSharded(cells, *server, *shards, *outDir, stdout, stderr)
}

// runCheckLocal is the serial reference: every cell explored whole,
// in-process.
func runCheckLocal(cells []denovogpu.CellSpec, outDir string, stdout, stderr io.Writer) int {
	for i, s := range cells {
		data, _, err := s.Run()
		if err != nil {
			return emitCellFailure(stderr, s, i, err.Error())
		}
		report, err := denovogpu.UnmarshalCheckReport(data)
		if err != nil {
			return emitCellFailure(stderr, s, i, err.Error())
		}
		code, err := finishCheckCell([]denovogpu.CheckReport{report}, outDir, stdout)
		if err != nil {
			return emitCellFailure(stderr, s, i, err.Error())
		}
		if code != 0 {
			return code
		}
	}
	fmt.Fprintf(stdout, "sweepd: checked %d cells serially\n", len(cells))
	return 0
}

// runCheckSharded splits every cell, submits all units as one job, and
// merges each cell's unit reports into its verdict.
func runCheckSharded(cells []denovogpu.CellSpec, server string, shards int, outDir string, stdout, stderr io.Writer) int {
	type plannedCell struct {
		spec  denovogpu.CellSpec
		base  denovogpu.CheckReport // split phase's own partial result
		first int                   // index of its first unit in the job, -1 when none
		units int
	}
	var planned []plannedCell
	var jobCells []denovogpu.CellSpec
	for i, s := range cells {
		unitSpecs, base, err := denovogpu.SplitCheckCell(s, shards)
		if err != nil {
			return emitCellFailure(stderr, s, i, err.Error())
		}
		pc := plannedCell{spec: s, base: base, first: -1, units: len(unitSpecs)}
		if len(unitSpecs) > 0 {
			pc.first = len(jobCells)
			jobCells = append(jobCells, unitSpecs...)
		}
		planned = append(planned, pc)
	}

	ctx, cancel := signalCtx()
	defer cancel()
	client := &sweepd.Client{Base: server}
	var status sweepd.JobStatus
	if len(jobCells) > 0 {
		sr, err := client.Submit(ctx, denovogpu.MatrixSpec{Cells: jobCells})
		if err != nil {
			fmt.Fprintf(stderr, "sweepd: submit: %v\n", err)
			return cli.ExitFailure
		}
		fmt.Fprintf(stdout, "sweepd: submitted job %s (%d cells, %d units)\n", sr.Status.ID, len(cells), len(jobCells))
		status, err = client.Wait(ctx, sr.Status.ID, 100*time.Millisecond)
		if err != nil {
			fmt.Fprintf(stderr, "sweepd: %v\n", err)
			return cli.ExitFailure
		}
		if status.State != "done" {
			var failed denovogpu.CellSpec
			if status.ErrorCell >= 0 && status.ErrorCell < len(jobCells) {
				failed = jobCells[status.ErrorCell]
			}
			return emitCellFailure(stderr, failed, status.ErrorCell, status.Error)
		}
		fmt.Fprintf(stdout, "sweepd: job %s done: %d units (%d cache hits) in %.0f ms\n",
			status.ID, status.Done, status.CacheHits, status.WallMS)
	}

	for i, pc := range planned {
		reports := []denovogpu.CheckReport{pc.base}
		for u := 0; u < pc.units; u++ {
			data, err := client.CellReport(ctx, status.ID, pc.first+u)
			if err != nil {
				return emitCellFailure(stderr, pc.spec, i, err.Error())
			}
			r, err := denovogpu.UnmarshalCheckReport(data)
			if err != nil {
				return emitCellFailure(stderr, pc.spec, i, err.Error())
			}
			reports = append(reports, r)
		}
		code, err := finishCheckCell(reports, outDir, stdout)
		if err != nil {
			return emitCellFailure(stderr, pc.spec, i, err.Error())
		}
		if code != 0 {
			return code
		}
	}
	fmt.Fprintf(stdout, "sweepd: checked %d cells across %d units\n", len(planned), len(jobCells))
	return 0
}

// finishCheckCell merges one cell's reports, writes/prints its verdict,
// and returns a non-zero exit code for a violation.
func finishCheckCell(reports []denovogpu.CheckReport, outDir string, stdout io.Writer) (int, error) {
	v, err := denovogpu.MergeCheckVerdict(reports)
	if err != nil {
		return 0, err
	}
	data, err := denovogpu.MarshalCheckVerdict(v)
	if err != nil {
		return 0, err
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return 0, err
		}
		name := denovogpu.CheckVerdictFileName(v.Program, v.Config)
		if err := os.WriteFile(filepath.Join(outDir, name), data, 0o644); err != nil {
			return 0, err
		}
	}
	if v.Violation != nil {
		fmt.Fprintf(stdout, "  %-16s %-8s VIOLATION: %s: %s\n", v.Program, v.Config, v.Violation.Invariant, v.Violation.Detail)
		return cli.ExitCellFailure, nil
	}
	fmt.Fprintf(stdout, "  %-16s %-8s clean (%d outcomes)\n", v.Program, v.Config, len(v.Outcomes))
	return 0, nil
}
