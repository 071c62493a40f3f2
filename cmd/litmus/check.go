package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
	"denovogpu/internal/mcheck"
	"denovogpu/internal/runner"
)

// runCheck is the `litmus check` subcommand: bounded-exhaustive model
// checking of the catalog (and optionally generated programs) under
// every configuration, including the DH lazy-writes ablation. Programs
// are sharded over a worker pool exactly like -fuzz: dispatch is
// in-order and failures resolve to the lowest program index, so any -j
// reports the same verdict as a serial run. Each cell's Check also
// splits its exploration over every core.
func runCheck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("litmus check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		budget  = fs.Int("budget", mcheck.DefaultBudget, "exploration node budget per (configuration, program), one for the whole cell however many cores explore it")
		gen     = fs.Int("gen", 0, "also model-check N seeded generated programs after the catalog")
		seed    = fs.Uint64("seed", 20260805, "base seed for -gen programs and counterexample replay schedules")
		jobs    = fs.Int("j", 0, "programs checked in parallel (0 = GOMAXPROCS, 1 = serial; any value reports the same lowest-index violation)")
		out     = fs.String("out", "", "directory for counterexample artifacts (case JSON + model trace)")
		stats   = fs.Bool("stats", false, "print a per-cell table (states, wall time, states/sec, allocation); timing columns vary run to run, and allocation is shown only with -j 1 (the heap counter is process-wide)")
		jsonOut = fs.String("json", "", "write a machine-readable denovogpu-check/v3 summary of a clean run to this file (alloc_mb per cell only with -j 1)")
		fault   = fs.Bool("fault", false, "inject the acquire-invalidation fault into every configuration (pipeline self-test; violations expected)")
		nsched  = fs.Int("schedules", 5, "simulator schedules used to reproduce a counterexample")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "litmus check: unexpected arguments %q\n", fs.Args())
		return 2
	}

	cfgs := mcheck.Configs()
	if *fault {
		for i := range cfgs {
			cfgs[i].FaultDisableAcquireInval = true
		}
	}

	type job struct {
		name string
		p    *litmus.Program
	}
	var progs []job
	for _, e := range Catalog() {
		progs = append(progs, job{e.Program.Name, e.Program})
	}
	gp := litmus.DefaultGenParams()
	for i := 0; i < *gen; i++ {
		p := litmus.Generate(*seed, uint64(i), gp)
		progs = append(progs, job{p.Name, p})
	}

	// One runner shard per program; each sweeps the configurations
	// serially so the first violation for a program is always the one
	// the lowest-numbered configuration produces.
	wantStats := *stats || *jsonOut != ""
	// The heap counter is process-wide, so a cell's allocation is its
	// own only when no other cell runs beside it.
	wantAlloc := wantStats && *jobs == 1
	type result struct {
		viol  *mcheck.Violation
		cells []checkCell
		skips []string
		err   error
	}
	results := make([]result, len(progs))
	failed := errors.New("shard failed")
	runner.Run(len(progs), runner.Options{Workers: *jobs}, func(i int) error {
		r := &results[i]
		opts := mcheck.Options{Budget: *budget}
		for _, cfg := range cfgs {
			var m0, m1 runtime.MemStats
			if wantAlloc {
				runtime.ReadMemStats(&m0)
			}
			t0 := time.Now()
			res, err := mcheck.Check(cfg, progs[i].p, opts)
			wall := time.Since(t0)
			cell := checkCell{Program: progs[i].name, Config: cfg.Name(), WallMS: float64(wall.Nanoseconds()) / 1e6}
			if wantAlloc {
				runtime.ReadMemStats(&m1)
				cell.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
			}
			var be *mcheck.BudgetError
			var sl *litmus.StateLimitError
			if errors.As(err, &be) || errors.As(err, &sl) {
				// Unverifiable at this budget, not a verdict. Recorded
				// and reported deterministically, never a failure.
				if be != nil {
					cell.States = be.States
				}
				cell.Skipped = err.Error()
				r.cells = append(r.cells, cell)
				r.skips = append(r.skips, fmt.Sprintf("%s / %s: %v", cfg.Name(), progs[i].name, err))
				continue
			}
			if err != nil {
				r.err = err
				return failed
			}
			cell.States = res.States
			cell.Outcomes = len(res.Outcomes)
			if s := wall.Seconds(); s > 0 {
				cell.StatesPerSec = float64(res.States) / s
			}
			r.cells = append(r.cells, cell)
			if res.Violation != nil {
				r.viol = res.Violation
				return failed
			}
		}
		return nil
	})

	checked, states := 0, 0
	var skips []string
	var cells []checkCell
	for i := range results {
		r := &results[i]
		if r.err != nil {
			fmt.Fprintln(stderr, r.err)
			return 1
		}
		if r.viol != nil {
			return reportCheckViolation(stdout, stderr, r.viol, *out, *nsched, *seed)
		}
		checked++
		for _, c := range r.cells {
			if c.Skipped == "" {
				states += c.States
			}
		}
		cells = append(cells, r.cells...)
		skips = append(skips, r.skips...)
	}
	for _, s := range skips {
		fmt.Fprintf(stderr, "litmus check: skipped %s\n", s)
	}
	if *stats {
		printCellStats(stdout, cells, wantAlloc)
	}
	fmt.Fprintf(stdout, "model-checked %d programs x %d configurations: %d states, no invariant or oracle violations", checked, len(cfgs), states)
	if len(skips) > 0 {
		fmt.Fprintf(stdout, " (%d cells skipped on budget)", len(skips))
	}
	fmt.Fprintln(stdout)
	if *jsonOut != "" {
		sum := checkSummary{
			Schema:     "denovogpu-check/v3",
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Budget:     *budget,
			Workers:    *jobs,
			Programs:   checked,
			Configs:    len(cfgs),
			States:     states,
			Skips:      len(skips),
			Cells:      cells,
		}
		js, err := json.MarshalIndent(sum, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(js, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

// checkCell is one (configuration, program) cell of a check summary.
// Timing and allocation columns vary run to run; States and Outcomes
// are deterministic at any -j and core count. AllocMB is the Go heap
// allocated while the cell ran, recorded only when the cell ran alone
// (-j 1): the counter is process-wide, so cells running beside it
// would be counted too.
type checkCell struct {
	Program      string  `json:"program"`
	Config       string  `json:"config"`
	States       int     `json:"states"`
	Outcomes     int     `json:"outcomes"`
	WallMS       float64 `json:"wall_ms"`
	StatesPerSec float64 `json:"states_per_sec"`
	AllocMB      float64 `json:"alloc_mb,omitempty"`
	Skipped      string  `json:"skipped,omitempty"`
}

// checkSummary is the -json report, schema denovogpu-check/v3.
type checkSummary struct {
	Schema     string      `json:"schema"`
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Budget     int         `json:"budget"`
	Workers    int         `json:"workers"`
	Programs   int         `json:"programs"`
	Configs    int         `json:"configs"`
	States     int         `json:"states"`
	Skips      int         `json:"skips"`
	Cells      []checkCell `json:"cells"`
}

func printCellStats(w io.Writer, cells []checkCell, withAlloc bool) {
	fmt.Fprintf(w, "%-10s %-20s %12s %9s %10s %12s %10s\n",
		"CONFIG", "PROGRAM", "STATES", "OUTCOMES", "WALL(MS)", "STATES/S", "ALLOC(MB)")
	for _, c := range cells {
		alloc := "-"
		if withAlloc {
			alloc = fmt.Sprintf("%.1f", c.AllocMB)
		}
		if c.Skipped != "" {
			fmt.Fprintf(w, "%-10s %-20s %12d %9s %10.1f %12s %10s  SKIP: %s\n",
				c.Config, c.Program, c.States, "-", c.WallMS, "-", alloc, c.Skipped)
			continue
		}
		fmt.Fprintf(w, "%-10s %-20s %12d %9d %10.1f %12.0f %10s\n",
			c.Config, c.Program, c.States, c.Outcomes, c.WallMS, c.StatesPerSec, alloc)
	}
}

// reportCheckViolation prints the counterexample, attempts to
// reproduce oracle-conformance violations in the cycle-level simulator
// (shrinking on success), and writes replayable artifacts.
func reportCheckViolation(stdout, stderr io.Writer, v *mcheck.Violation, outDir string, nsched int, seed uint64) int {
	fmt.Fprintln(stdout, v.Error())
	c := v.Case()

	if v.Invariant == "oracle-conformance" {
		// The model found a forbidden outcome; check whether sampled
		// simulator schedules hit it too. A model-only interleaving is
		// still a bug report — the model only adds interleavings the
		// protocol must tolerate — but a simulator reproduction gives a
		// shrunk, pinnable regression case.
		lv, err := litmus.Check([]machine.Config{v.Config}, v.Program, litmus.Schedules(v.Program, nsched, seed))
		if err != nil {
			fmt.Fprintln(stderr, err)
		} else if lv != nil {
			sp, ss := litmus.Shrink(lv.Config, lv.Program, lv.Schedule)
			c = &litmus.Case{Config: v.Config.Name(), Fault: v.Config.FaultDisableAcquireInval,
				Program: sp, Schedule: ss, Observed: &lv.Observed}
			fmt.Fprintf(stdout, "reproduced in the simulator; shrunk to %d ops\n", sp.NumOps())
		} else {
			fmt.Fprintf(stdout, "not reproduced by %d sampled simulator schedules (model-level interleaving)\n", nsched)
		}
	}

	js, err := c.MarshalIndent()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(js))

	if outDir != "" {
		if err := writeArtifacts(outDir, v, js); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "counterexample artifacts written to %s\n", outDir)
	}
	return 1
}

func writeArtifacts(dir string, v *mcheck.Violation, caseJSON []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := sanitizeName(v.Program.Name + "-" + v.Config.Name())
	if err := os.WriteFile(filepath.Join(dir, base+".case.json"), caseJSON, 0o644); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s violated under %s: %s\nprogram %s\n", v.Invariant, v.Config.Name(), v.Detail, v.Program.Name)
	for _, step := range v.Trace {
		b.WriteString(step)
		b.WriteByte('\n')
	}
	return os.WriteFile(filepath.Join(dir, base+".trace.txt"), []byte(b.String()), 0o644)
}

// sanitizeName maps a program/configuration name to a filename-safe
// slug ("MP+preload-DD+RO" -> "MP-preload-DD-RO").
func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '-'
		}
	}, s)
}
