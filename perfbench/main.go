// Command perfbench is the repository benchmark. It runs one named
// workload closed-loop from a single process, checks every output, and
// prints its metrics by name and unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload sim-sync --seed 42 --seconds 20 --trace 0
//
// With --trace 0 it measures whole passes of the workload for about
// --seconds and reports the end-to-end metrics (medians over passes).
// With --trace 1 it runs one untraced and one traced pass, asserts that
// both simulated and explored identically, and reports the per-layer
// metrics: counts, span self times, package CPU shares from a
// runtime/pprof profile, and per-layer microbenchmarks. README.md
// documents every workload and metric.
//
// The benchmark drives the program only through its public functions
// and counters; it changes nothing inside it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupReps is how many fresh processes setup_s is the median of.
const setupReps = 9

// goldenDir holds the committed golden reports, relative to the root
// of the checkout the benchmark runs from (tests point it elsewhere).
var goldenDir = "internal/machine/testdata/golden"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = fs.Uint64("seed", 42, "input seed: the graph cells' generator seed (42 reproduces the committed goldens)")
		seconds   = fs.Float64("seconds", 10, "measuring time; whole passes run while the next one is expected to end within it")
		trace     = fs.Int("trace", 0, "1 runs one untraced and one traced pass and reports the per-layer metrics")
		out       = fs.String("out", "", "directory the traced run writes its spans and CPU profile to (default: a temporary file, removed)")
		setupOnly = fs.Bool("setup-only", false, "prepare the workload, release it and exit (times set-up in a fresh process)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	case *seconds <= 0:
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	if _, err := os.Stat(goldenDir); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the root of a checkout: %v\n", err)
		return 1
	}

	if *setupOnly {
		j, err := w.prepare(*seed)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		j.close()
		return 0
	}

	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = traced(w, *seed, *out, stderr)
	} else {
		res, err = measured(w, *seed, time.Duration(*seconds*float64(time.Second)), stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printResult(stdout, w.name, res)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed their output checks\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// measured runs the untraced benchmark: set-up in fresh processes, then
// whole passes until the next one would overrun the measuring time.
func measured(w workload, seed uint64, budget time.Duration, stderr io.Writer) (result, error) {
	setups, err := timeSetups(w.name, seed, stderr)
	if err != nil {
		return result{}, err
	}
	var (
		walls, works, allocs, rss []float64
		total                     = &sample{}
		start                     = time.Now()
		last                      time.Duration
	)
	for len(walls) == 0 || time.Since(start)+last <= budget {
		p, err := runPass(w, seed)
		if err != nil {
			return result{}, err
		}
		last = p.wall
		walls = append(walls, p.wall.Seconds())
		works = append(works, p.workPerSec())
		allocs = append(allocs, p.mem.allocMB())
		rss = append(rss, p.peakRSSMB)
		total.merge(p.sample)
		if len(p.failures) > 0 {
			break // a wrong output needs no timing; report it
		}
	}
	for _, f := range total.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	values := map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      median(walls),
		"work_per_s":  median(works),
		"alloc_mb":    median(allocs),
		"peak_rss_mb": median(rss),
	}
	res := newResult(total)
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{values[d.name], d.unit}
	}
	fmt.Fprintf(stderr, "perfbench: %s: %d passes, pass walls %v s\n", w.name, len(walls), walls)
	return res, nil
}

// timeSetups starts setupReps fresh processes that only prepare the
// workload, and returns each one's wall time from start to exit: the
// process start, package initialization and the workload's set-up.
func timeSetups(name string, seed uint64, stderr io.Writer) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary for set-up timing: %w", err)
	}
	var out []float64
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10), "--setup-only")
		cmd.Stderr = stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up of %s: %w", name, err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// newResult starts a result from a pass's operation counts.
func newResult(s *sample) result {
	return result{
		Correct:   len(s.failures) == 0 && s.failed == 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   make(map[string]metric),
	}
}

// printResult writes a human-readable table of every metric, then the
// machine-readable JSON line, which is always the last line.
func printResult(w io.Writer, workload string, r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s: %d operations, %d failed\n", workload, r.Attempted, r.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of finite floats always encodes
	}
	fmt.Fprintln(w, string(line))
}

// memDelta is the Go heap activity of one pass.
type memDelta struct {
	totalAlloc, mallocs, numGC, pauseNs uint64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		totalAlloc: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		numGC:      uint64(after.NumGC - before.NumGC),
		pauseNs:    after.PauseTotalNs - before.PauseTotalNs,
	}
}

func (m memDelta) allocMB() float64 { return float64(m.totalAlloc) / (1 << 20) }

// resetPeakRSS returns freed memory to the system and restarts the
// process's resident-set high-water mark, so that the next peakRSSMB
// covers only what runs in between.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux 4.0 and later). Where
	// that fails the mark covers the whole process, which only overstates.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
