// Command bench is the repository's exact simulator gate. It runs one
// fixed list of cells serially and records, per cell, the simulated
// cycles, the fired engine events and the heap allocations in
// BENCH_sim.json. None of these depend on the host: the simulator is
// deterministic and each cell's allocations are counted exactly, so the
// committed file can be checked on any machine. Host time is measured
// by the repository benchmark in perfbench/, not here.
//
// The list holds 66 cells: the 50 paper cells (BP, ST, LAVA, SGEMM,
// FAM_G, SPM_G, TB_LG, SPM_L, SS_L and UTS under GD, GH, DD, DD+RO and
// DH), the graph cells (BFS, PR and SSSP under GD, DD, DD+RO and SPEC)
// and four 2-device cells (TB_LGx2, FAM_Gx2 and UTSx2 under DDx2, and
// UTSx2 under GDx2).
//
// Usage:
//
//	go run ./cmd/bench            # run every cell, rewrite BENCH_sim.json
//	go run ./cmd/bench -check     # run every cell, compare with BENCH_sim.json
//	go run ./cmd/bench -o f.json  # read or write f.json instead
//
// -check fails (exit 1) when a cell is missing from the file, when its
// cycles or events differ from the committed values by any amount, or
// when its allocations exceed the committed count by more than
// allocTolerance plus allocCellSlack. A cell that fails to simulate
// exits 3 after a machine-readable line on stderr (internal/cli) and
// writes nothing.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"denovogpu"
	"denovogpu/internal/cli"
)

// schema names the BENCH_sim.json layout.
const schema = "denovogpu-bench/v2"

// allocTolerance is the allowed fractional allocation growth per cell.
const allocTolerance = 0.10

// allocCellSlack is the absolute per-cell allocation headroom added on
// top of allocTolerance. Steady-state cells allocate nothing per event,
// so their counts are dominated by one-time pool warm-up and are small
// (tens of thousands); a purely fractional gate on numbers that small
// would trip on runtime-internal noise (GC metadata, map growth
// timing), while a purely absolute gate would be meaningless for the
// bigger cells. The sum of the two absorbs both.
const allocCellSlack = 5000

// cells is the gated cell list, in file order.
func cells() []denovogpu.CellSpec {
	var list []denovogpu.CellSpec
	cross := func(workloads, configs []string) {
		for _, w := range workloads {
			for _, c := range configs {
				list = append(list, denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: c}, Workload: w})
			}
		}
	}
	cross([]string{"BP", "ST", "LAVA", "SGEMM", "FAM_G", "SPM_G", "TB_LG", "SPM_L", "SS_L", "UTS"},
		[]string{"GD", "GH", "DD", "DD+RO", "DH"})
	cross([]string{"BFS", "PR", "SSSP"}, []string{"GD", "DD", "DD+RO", "SPEC"})
	for _, c := range []struct{ workload, config string }{
		{"TB_LGx2", "DD"}, {"FAM_Gx2", "DD"}, {"UTSx2", "DD"}, {"UTSx2", "GD"},
	} {
		list = append(list, denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: c.config, Devices: 2}, Workload: c.workload})
	}
	return list
}

// result is the measurement of one cell.
type result struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	Cycles   uint64 `json:"cycles"`
	Events   uint64 `json:"events"`
	Allocs   uint64 `json:"allocs"`
}

// benchFile is the on-disk BENCH_sim.json layout.
type benchFile struct {
	Schema    string   `json:"schema"`
	GoVersion string   `json:"go_version"`
	Results   []result `json:"results"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runCell simulates one cell; a seam so tests can fabricate results
// without minutes of simulation.
var runCell = measure

// measure resolves and simulates one cell, counting the heap
// allocations of the simulation alone. Cells run one at a time, so the
// process-global malloc count is exact per cell.
func measure(spec denovogpu.CellSpec) (result, error) {
	mc, err := spec.Cell()
	if err != nil {
		return result{}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := denovogpu.Run(mc.Config, mc.Workload)
	runtime.ReadMemStats(&after)
	return result{Cycles: rep.Cycles, Events: rep.Events, Allocs: after.Mallocs - before.Mallocs}, err
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		check = fs.Bool("check", false, "compare with the committed file instead of rewriting it")
		out   = fs.String("o", "BENCH_sim.json", "file to write, or to compare with under -check")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return cli.ExitUsage
	}

	var ref *benchFile
	if *check {
		var err error
		if ref, err = load(*out); err != nil {
			fmt.Fprintln(stderr, "bench: -check:", err)
			return cli.ExitFailure
		}
	}

	f := &benchFile{Schema: schema, GoVersion: runtime.Version()}
	for i, spec := range cells() {
		workload, config := spec.Label()
		r, err := runCell(spec)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s under %s: %v\n", workload, config, err)
			return cli.EmitCellFailure(stderr, workload, config, i, err.Error())
		}
		r.Workload, r.Config = workload, config
		fmt.Fprintf(stdout, "%-8s %-6s %12d cycles %12d events %10d allocs\n", workload, config, r.Cycles, r.Events, r.Allocs)
		f.Results = append(f.Results, r)
	}

	if *check {
		if err := compare(f.Results, ref.Results); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return cli.ExitFailure
		}
		fmt.Fprintf(stdout, "check: %d cells match %s\n", len(f.Results), *out)
		return 0
	}
	if err := save(*out, f); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return cli.ExitFailure
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return 0
}

// compare gates measured cells against committed ones and returns every
// violation: a cell missing from the file, any cycle or event drift (a
// change in simulated behaviour, which needs the file regenerated), or
// allocations above ref*(1+allocTolerance)+allocCellSlack.
func compare(cur, ref []result) error {
	type key struct{ workload, config string }
	committed := make(map[key]result, len(ref))
	for _, r := range ref {
		committed[key{r.Workload, r.Config}] = r
	}
	var errs []error
	for _, r := range cur {
		rr, ok := committed[key{r.Workload, r.Config}]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("%s under %s is missing from the committed file", r.Workload, r.Config))
			continue
		case r.Cycles != rr.Cycles || r.Events != rr.Events:
			errs = append(errs, fmt.Errorf("%s under %s took %d cycles and fired %d events, committed %d and %d: simulated behaviour changed, regenerate the file if intended",
				r.Workload, r.Config, r.Cycles, r.Events, rr.Cycles, rr.Events))
		}
		if limit := uint64(float64(rr.Allocs)*(1+allocTolerance)) + allocCellSlack; r.Allocs > limit {
			errs = append(errs, fmt.Errorf("%s under %s made %d allocations, committed %d (limit %d = +%.0f%% + %d)",
				r.Workload, r.Config, r.Allocs, rr.Allocs, limit, allocTolerance*100, allocCellSlack))
		}
	}
	return errors.Join(errs...)
}

func load(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schema)
	}
	return &f, nil
}

func save(path string, f *benchFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
