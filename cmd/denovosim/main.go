// Command denovosim runs one benchmark under one configuration and
// prints the paper's three measurements plus diagnostic counters.
//
// Usage:
//
//	denovosim -bench SPM_G -config DD [-counters] [-invariants]
//	denovosim -bench SPM_G -config DD -trace out.json -metrics out.csv
//	denovosim -bench TB_LGx2 -config DD -devices 2 -trace out.txt
//	denovosim -list
//
// Observability: -trace writes the typed protocol event trace, as plain
// text when the path ends in .txt (one line per event: cycle, track,
// kind, arg, and dur for spans, then a total/dropped trailer) and as
// Chrome trace_event JSON otherwise (open in chrome://tracing or
// https://ui.perfetto.dev). -trace-cap bounds the trace ring: both
// formats keep the last N events and count the older ones as dropped.
// The text trace names each protocol action where it happens (cu-03,
// bank-07, n17.east), on every device; it carries no word masks and no
// raw mesh-packet lines, unlike the packet dump it replaced, which also
// kept the first N messages rather than the last.
// -metrics writes epoch-sampled time-series metrics (CSV, or JSON when
// the path ends in .json), -sample-every sets the sampling interval.
// Output files are created before the simulation starts.
// Profiling: -pprof serves net/http/pprof, -runtime-trace captures a Go
// runtime execution trace of the simulator itself.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	rtrace "runtime/trace"
	"strings"

	"denovogpu"
	"denovogpu/internal/obs"
	"denovogpu/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("denovosim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "", "benchmark name from Table 4 (see -list)")
	config := fs.String("config", "DD", "configuration: GD, GH, DD, DD+RO, DH")
	counters := fs.Bool("counters", false, "also print diagnostic counters")
	list := fs.Bool("list", false, "list benchmarks and exit")
	sbEntries := fs.Int("sbentries", 0, "override store-buffer entries (0 = paper default 256)")
	cus := fs.Int("cus", 0, "override GPU CU count (0 = paper default 15)")
	devices := fs.Int("devices", 0, "override device count (0 = default 1; the x2 benchmarks expect 2)")
	lazy := fs.Bool("lazywrites", false, "delay DeNovo data-write registration to global releases")
	invariants := fs.Bool("invariants", false, "arm the protocol invariant sanitizer (hot-path assertions + post-kernel checks; reports stay byte-identical)")
	tracePath := fs.String("trace", "", "write the event trace to this file: text, one line per protocol event and no word masks or raw packets, if it ends in .txt; Chrome trace_event JSON otherwise")
	traceCap := fs.Int("trace-cap", 0, "event-trace ring capacity in events (0 = default 1M); keeps the last N events and drops the oldest")
	metricsPath := fs.String("metrics", "", "write epoch-sampled metrics to this file (CSV, or JSON if it ends in .json)")
	sampleEvery := fs.Uint64("sample-every", obs.DefaultSampleEvery, "metrics sampling interval in cycles")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	runtimeTrace := fs.String("runtime-trace", "", "write a Go runtime execution trace of the simulator to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "denovosim: unexpected arguments %q\n", fs.Args())
		return 2
	}

	if *list {
		for _, name := range denovogpu.Workloads() {
			w, _ := denovogpu.WorkloadByName(name)
			fmt.Fprintf(stdout, "%-10s %-12s %s\n", w.Name, w.Category, w.Input)
		}
		return 0
	}
	if *bench == "" {
		fmt.Fprintln(stderr, "denovosim: -bench is required (try -list)")
		return 2
	}
	cfg, err := denovogpu.ConfigByName(*config)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *sbEntries > 0 {
		cfg.SBEntries = *sbEntries
	}
	if *cus > 0 {
		cfg.NumCUs = *cus
	}
	if *devices > 0 {
		cfg.Devices = *devices
	}
	cfg.LazyWrites = cfg.LazyWrites || *lazy
	cfg.Invariants = *invariants
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	w, err := denovogpu.WorkloadByName(*bench)
	if err == nil {
		err = w.CheckDevices(cfg.Devices)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(stderr, "denovosim: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(stderr, "denovosim: pprof at http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *runtimeTrace != "" {
		f, err := os.Create(*runtimeTrace)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintln(stderr, err)
			f.Close()
			return 1
		}
		defer func() {
			rtrace.Stop()
			f.Close()
		}()
	}

	// Create the output files before simulating, so a bad path fails
	// now rather than after the whole run.
	traceOut, err := createOutput(*tracePath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer traceOut.Close()
	metricsOut, err := createOutput(*metricsPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer metricsOut.Close()
	var rec *denovogpu.Recorder
	var sampler *denovogpu.Sampler
	if metricsOut != nil {
		sampler = denovogpu.NewSampler(*sampleEvery)
	}
	rep, err := denovogpu.RunObserved(cfg, w, func(clock func() uint64) *denovogpu.Recorder {
		if traceOut != nil {
			rec = denovogpu.NewRecorder(clock, *traceCap)
		}
		return rec
	}, sampler)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	writeTrace, writeMetrics := rec.WriteChromeTrace, rep.Timeline.WriteCSV
	if strings.HasSuffix(*tracePath, ".txt") {
		writeTrace = rec.WriteText
	}
	if strings.HasSuffix(*metricsPath, ".json") {
		writeMetrics = rep.Timeline.WriteJSON
	}
	if err := errors.Join(writeOutput(traceOut, writeTrace), writeOutput(metricsOut, writeMetrics)); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintf(stdout, "benchmark   %s\nconfig      %s\n", rep.Workload, rep.Config)
	fmt.Fprintf(stdout, "exec time   %d cycles (%.3f ms @ 700 MHz)\n", rep.Cycles, float64(rep.Cycles)/700e3)
	fmt.Fprintf(stdout, "energy      %.2f uJ total\n", rep.TotalEnergyPJ()/1e6)
	for c := stats.Component(0); c < stats.NumComponents; c++ {
		fmt.Fprintf(stdout, "  %-10s %12.2f uJ\n", c, rep.EnergyPJ[c]/1e6)
	}
	fmt.Fprintf(stdout, "traffic     %d flit crossings\n", rep.TotalFlits())
	for c := stats.TrafficClass(0); c < stats.NumTrafficClasses; c++ {
		fmt.Fprintf(stdout, "  %-10s %12d\n", c, rep.Flits[c])
	}
	if *counters {
		fmt.Fprintln(stdout, "counters")
		for _, n := range rep.Stats.Names() {
			fmt.Fprintf(stdout, "  %-32s %12d\n", n, rep.Stats.Get(n))
		}
	}
	return 0
}

// createOutput creates the file at path, or returns nil for an empty
// path.
func createOutput(path string) (*os.File, error) {
	if path == "" {
		return nil, nil
	}
	return os.Create(path)
}

// writeOutput streams write into f and closes it, reporting the first
// error from either; after a write error the caller's deferred Close
// releases f. A nil f (no output requested) writes nothing.
func writeOutput(f *os.File, write func(io.Writer) error) error {
	if f == nil {
		return nil
	}
	if err := write(f); err != nil {
		return err
	}
	return f.Close()
}
