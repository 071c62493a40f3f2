package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the public function it calls. Cell is the cell index within
// the pass (-1 for pass-level spans); Parent indexes the enclosing
// span (-1 for none).
type span struct {
	Name   string `json:"name"`
	Cell   int    `json:"cell"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced pass's spans in memory. A nil tracer records
// nothing, so one pass body serves traced and untraced passes.
type tracer struct {
	t0    time.Time
	spans []span
	// events is each cell's engine event count from the untraced pass;
	// it sizes the cell's event recorder.
	events map[string]uint64
}

func (t *tracer) begin(name string, cell, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Cell: cell, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// spanTotal is the summed self time and count of the spans of one name.
type spanTotal struct {
	selfMS float64
	n      int
}

// selfTimes derives each span name's self time: a span's duration less
// the part its child spans cover (children of one span never overlap,
// since every pass is serial).
func (t *tracer) selfTimes() map[string]spanTotal {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]spanTotal)
	for i, s := range t.spans {
		tot := out[s.Name]
		tot.selfMS += float64(s.End-s.Start-covered[i]) / 1e6
		tot.n++
		out[s.Name] = tot
	}
	return out
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"work_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order.
// Every workload reports all of them; a layer the workload does not
// run reports 0.
var perLayer = []metricDef{
	// Workload-level results of the untraced pass.
	{"sim_events_per_s", "events/s"},
	{"sim_cycles", "cycles"},
	{"sim_flits", "flits"},
	{"sim_energy_uj", "uJ"},
	{"mcheck_nodes", "nodes"},
	{"mcheck_nodes_per_s", "nodes/s"},
	{"cold_job_s", "s"},
	{"warm_submit_ms_p50", "ms"},
	{"ops_failed_frac", "ratio"},
	{"trace.overhead_s", "s"},
	// internal/sim
	{"sim.events", "events"},
	{"sim.ns_per_event", "ns"},
	{"sim.allocs_per_event", "count"},
	{"sim.cpu_share", "ratio"},
	// internal/gpu
	{"gpu.mem_instrs", "count"},
	{"gpu.sync_instrs", "count"},
	{"gpu.line_accesses", "count"},
	{"gpu.ns_per_mem_op", "ns"},
	{"gpu.allocs_per_mem_op", "count"},
	{"gpu.cpu_share", "ratio"},
	{"runtime.coro.cpu_share", "ratio"},
	// internal/denovo, internal/gpucoh
	{"l1.read_hits", "count"},
	{"l1.read_misses", "count"},
	{"l1.sync_hits", "count"},
	{"l1.sync_misses", "count"},
	{"l1.ownership_transfers", "count"},
	{"l1.flash_invalidations", "count"},
	{"l1.writebacks", "count"},
	{"l1.writethroughs", "count"},
	{"cu.stall_mem_cycles", "cycles"},
	{"cu.stall_sync_cycles", "cycles"},
	{"obs.recorded_cells", "count"},
	{"obs.dropped_cells", "count"},
	{"denovo.cpu_share", "ratio"},
	{"gpucoh.cpu_share", "ratio"},
	// internal/cache
	{"sb.coalesced_writes", "count"},
	{"sb.release_drains", "count"},
	{"sb.overflow_writethroughs", "count"},
	{"cache.sb_ns_per_insert", "ns"},
	{"cache.sb_allocs_per_insert", "count"},
	{"cache.cpu_share", "ratio"},
	// internal/l2
	{"l2.atomics", "count"},
	{"l2.dram_fetches", "count"},
	{"l2.read_forwards", "count"},
	{"l2.reg_forwards", "count"},
	{"l2.writethroughs", "count"},
	{"l2.cpu_share", "ratio"},
	// internal/noc
	{"noc.packets", "count"},
	{"noc.link_busy_max", "cycles"},
	{"noc.flits.read", "flits"},
	{"noc.flits.reg", "flits"},
	{"noc.flits.wbwt", "flits"},
	{"noc.flits.atomic", "flits"},
	{"noc.ns_per_packet", "ns"},
	{"noc.allocs_per_packet", "count"},
	{"noc.cpu_share", "ratio"},
	// internal/interconnect
	{"interconnect.packets", "count"},
	{"interconnect.link_busy_cycles", "cycles"},
	{"noc.flits.xdev", "flits"},
	{"interconnect.ns_per_packet", "ns"},
	{"interconnect.allocs_per_packet", "count"},
	{"interconnect.cpu_share", "ratio"},
	// internal/stats, internal/wordmap
	{"stats.ns_per_inc", "ns"},
	{"stats.ns_per_inc_view", "ns"},
	{"stats.allocs_per_inc", "count"},
	{"stats.allocs_per_inc_view", "count"},
	{"wordmap.ns_per_op", "ns"},
	{"wordmap.allocs_per_op", "count"},
	{"stats.cpu_share", "ratio"},
	{"wordmap.cpu_share", "ratio"},
	// internal/machine, internal/workload
	{"machine.new_ms", "ms"},
	{"machine.run_ms", "ms"},
	{"workload.verify_ms", "ms"},
	{"machine.cpu_share", "ratio"},
	{"workload.cpu_share", "ratio"},
	// internal/mcheck, internal/litmus
	{"mcheck.check_ms", "ms"},
	{"mcheck.nodes.ISA2-transitive.DH", "nodes"},
	{"mcheck.nodes.IRIW-scoped.GH", "nodes"},
	{"mcheck.nodes.MP-preload.DD", "nodes"},
	{"mcheck.nodes.MP-preload.DD-RO", "nodes"},
	{"mcheck.nodes.MP-preload.DH", "nodes"},
	{"mcheck.nodes.MP-preload.DH-lazy", "nodes"},
	{"mcheck.check_ms.ISA2-transitive.DH", "ms"},
	{"mcheck.check_ms.IRIW-scoped.GH", "ms"},
	{"mcheck.check_ms.MP-preload.DD", "ms"},
	{"mcheck.check_ms.MP-preload.DD-RO", "ms"},
	{"mcheck.check_ms.MP-preload.DH", "ms"},
	{"mcheck.check_ms.MP-preload.DH-lazy", "ms"},
	{"litmus.oracle_ms", "ms"},
	{"mcheck.peak_heap_mb", "MB"},
	{"mcheck.cpu_share", "ratio"},
	{"litmus.cpu_share", "ratio"},
	// internal/sweepd, internal/resultcache, root report encoding
	{"sweepd.submit_ms", "ms"},
	{"sweepd.cell_report_ms", "ms"},
	{"sweepd.overhead_s", "s"},
	{"sweepd.warm_submit_ms_p99", "ms"},
	{"resultcache.hits", "count"},
	{"resultcache.misses", "count"},
	{"resultcache.bytes", "bytes"},
	{"resultcache.get_us", "us"},
	{"resultcache.put_us", "us"},
	{"resultcache.allocs_per_get", "count"},
	{"resultcache.allocs_per_put", "count"},
	{"report.marshal_ms", "ms"},
	{"sweepd.cpu_share", "ratio"},
	{"resultcache.cpu_share", "ratio"},
	{"report.cpu_share", "ratio"},
	// Go runtime, over the untraced pass
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"runtime.gc.cpu_share", "ratio"},
	{"allocs", "count"},
}

// passResult is one pass with its host measurements.
type passResult struct {
	*sample
	wall      time.Duration
	mem       memDelta
	peakRSSMB float64
}

func (p *passResult) workPerSec() float64 {
	sec := p.workSec
	if sec == 0 {
		sec = p.wall.Seconds()
	}
	return p.work / sec
}

// runPass prepares a fresh job and times one untraced pass of it.
func runPass(w workload, seed uint64) (*passResult, error) {
	j, err := w.prepare(seed)
	if err != nil {
		return nil, err
	}
	defer j.close()
	resetPeakRSS()
	before := readMem()
	t0 := time.Now()
	s, err := j.pass(nil)
	wall := time.Since(t0)
	mem := memSince(before)
	if err != nil {
		return nil, err
	}
	return &passResult{s, wall, mem, peakRSSMB()}, nil
}

// traced runs one untraced pass, then one traced pass under a CPU
// profile, asserts that the two agree on every simulated statistic,
// explored node, layer count and output byte, and reports the
// per-layer metrics.
func traced(w workload, seed uint64, outDir string, stderr io.Writer) (result, error) {
	u, err := runPass(w, seed)
	if err != nil {
		return result{}, err
	}

	var prof *os.File
	if outDir != "" {
		prof, err = os.Create(filepath.Join(outDir, w.name+"-cpu.pprof"))
	} else {
		prof, err = os.CreateTemp("", "perfbench-cpu-*.pprof")
	}
	if err != nil {
		return result{}, err
	}
	defer prof.Close() // closed and checked below; this covers early returns
	if outDir == "" {
		defer os.Remove(prof.Name())
	}

	j, err := w.prepare(seed)
	if err != nil {
		return result{}, err
	}
	defer j.close()
	t := &tracer{events: u.events}
	runtime.GC()
	heapPeak := sampleHeapPeak()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return result{}, err
	}
	t.t0 = time.Now()
	v, err := j.pass(t)
	wall := time.Since(t.t0)
	pprof.StopCPUProfile()
	peakHeapMB := heapPeak()
	if err != nil {
		return result{}, err
	}
	if err := prof.Close(); err != nil {
		return result{}, err
	}

	total := &sample{}
	total.merge(u.sample)
	total.merge(v)
	total.op("traced pass equals untraced pass", sameOutputs(u.sample, v))
	if sj, ok := j.(*sweepJob); ok {
		// The service pass cannot see inside its worker's machines; run
		// the same cells directly, outside the profile, for the mesh,
		// link and stall counters.
		d := newSample()
		if err := sj.directRun(t, d, v.reports); err != nil {
			return result{}, err
		}
		total.merge(d)
		total.op("direct runs equal service runs", sameOutputs(v, d))
		for k, x := range d.exact {
			if _, ok := v.exact[k]; !ok {
				v.exact[k] = x
			}
		}
	}
	for _, f := range total.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}

	shares, err := cpuShares(prof.Name())
	if err != nil {
		return result{}, err
	}
	micro, err := runMicrobenchmarks()
	if err != nil {
		return result{}, err
	}
	if outDir != "" {
		if err := writeSpans(filepath.Join(outDir, w.name+"-spans.json"), t.spans); err != nil {
			return result{}, err
		}
	}

	res := newResult(total)
	set := func(name string, v float64) {
		for _, d := range perLayer {
			if d.name == name {
				res.Metrics[name] = metric{v, d.unit}
				return
			}
		}
		panic("perfbench: unlisted per-layer metric " + name)
	}
	for _, d := range perLayer {
		set(d.name, 0)
	}
	for k, x := range v.exact {
		set(k, x)
	}
	for k, x := range u.host {
		set(k, x)
	}
	switch j.(type) {
	case *simJob, *sweepJob:
		// Fired events per host second of the simulation: the whole pass,
		// or on sweep-xdev the cold job.
		set("sim_events_per_s", u.workPerSec())
	}
	if _, ok := j.(*checkJob); ok {
		set("mcheck_nodes_per_s", u.exact["mcheck_nodes"]/u.wall.Seconds())
		set("mcheck.peak_heap_mb", peakHeapMB)
	}
	set("ops_failed_frac", float64(total.failed)/float64(max(total.attempted, 1)))
	set("trace.overhead_s", wall.Seconds()-u.wall.Seconds())
	spans := t.selfTimes()
	for name, metricName := range map[string]string{
		"machine.new":     "machine.new_ms",
		"machine.run":     "machine.run_ms",
		"workload.verify": "workload.verify_ms",
		"report.marshal":  "report.marshal_ms",
		"mcheck.check":    "mcheck.check_ms",
		"litmus.oracle":   "litmus.oracle_ms",
		"sweepd.submit":   "sweepd.submit_ms",
	} {
		set(metricName, spans[name].selfMS)
	}
	if r := spans["sweepd.cell_report"]; r.n > 0 {
		set("sweepd.cell_report_ms", r.selfMS/float64(r.n))
	}
	set("gc.cycles", float64(u.mem.numGC))
	set("gc.pause_ms", float64(u.mem.pauseNs)/1e6)
	set("allocs", float64(u.mem.mallocs))
	for k, x := range shares {
		set(k, x)
	}
	for k, x := range micro {
		set(k, x)
	}
	fmt.Fprintf(stderr, "perfbench: %s: untraced pass %.3f s, traced pass %.3f s\n", w.name, u.wall.Seconds(), wall.Seconds())
	return res, nil
}

// sameOutputs reports the first disagreement between two passes over
// one input: a deterministic total they share, or a cell's output bytes.
func sameOutputs(a, b *sample) error {
	keys := make([]string, 0, len(a.exact))
	for k := range a.exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if y, ok := b.exact[k]; ok && y != a.exact[k] {
			return fmt.Errorf("%s: %v, other pass %v", k, a.exact[k], y)
		}
	}
	for label, out := range a.reports {
		if !bytes.Equal(out, b.reports[label]) {
			return fmt.Errorf("%s: output bytes differ between passes", label)
		}
	}
	return nil
}

// sampleHeapPeak polls the heap's object bytes every few milliseconds
// until the returned function is called, which returns the peak in MB.
func sampleHeapPeak() func() float64 {
	stop := make(chan struct{})
	peak := make(chan float64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var most uint64
		for {
			metrics.Read(s)
			most = max(most, s[0].Value.Uint64())
			select {
			case <-stop:
				peak <- float64(most) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-peak
	}
}

func writeSpans(path string, spans []span) error {
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// layerPackages attributes profile samples to the repository's modules
// by the package of the function they landed in.
var layerPackages = []struct{ metric, pkg string }{
	{"sim.cpu_share", "denovogpu/internal/sim"},
	{"gpu.cpu_share", "denovogpu/internal/gpu"},
	{"denovo.cpu_share", "denovogpu/internal/denovo"},
	{"gpucoh.cpu_share", "denovogpu/internal/gpucoh"},
	{"cache.cpu_share", "denovogpu/internal/cache"},
	{"l2.cpu_share", "denovogpu/internal/l2"},
	{"noc.cpu_share", "denovogpu/internal/noc"},
	{"interconnect.cpu_share", "denovogpu/internal/interconnect"},
	{"stats.cpu_share", "denovogpu/internal/stats"},
	{"wordmap.cpu_share", "denovogpu/internal/wordmap"},
	{"machine.cpu_share", "denovogpu/internal/machine"},
	{"workload.cpu_share", "denovogpu/internal/workload"},
	{"mcheck.cpu_share", "denovogpu/internal/mcheck"},
	{"litmus.cpu_share", "denovogpu/internal/litmus"},
	{"sweepd.cpu_share", "denovogpu/internal/sweepd"},
	{"resultcache.cpu_share", "denovogpu/internal/resultcache"},
	{"report.cpu_share", "denovogpu"},
}

// gcRoots are the runtime functions under which all garbage-collector
// work runs: background marking, mark assists and background sweeping.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep"}

// cpuShares reads a CPU profile with `go tool pprof -top` and returns
// each layer's share of all samples: the flat (self) time of its
// package's functions, with workload's subpackages folded in. The
// coroutine switch share is the flat time of the runtime's coro*
// functions and of package iter; the GC share is the cumulative time
// under gcRoots.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000", "-nodefraction=0", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.Bytes())
	}
	shares := make(map[string]float64)
	var total float64
	inTable := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "flat" && f[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(f) < 6 {
			continue
		}
		flat, err1 := parseMS(f[0])
		cum, err2 := parseMS(f[3])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("go tool pprof: unreadable row %q", line)
		}
		fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		total += flat
		pkg := funcPackage(fn)
		for _, l := range layerPackages {
			if pkg == l.pkg || (l.pkg == "denovogpu/internal/workload" && strings.HasPrefix(pkg, l.pkg+"/")) {
				shares[l.metric] += flat
			}
		}
		if strings.HasPrefix(fn, "runtime.coro") || pkg == "iter" {
			shares["runtime.coro.cpu_share"] += flat
		}
		for _, root := range gcRoots {
			if fn == root {
				shares["runtime.gc.cpu_share"] += cum
			}
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in %s", profile)
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

func parseMS(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
}

// funcPackage returns the import path of a profiled function name such
// as "denovogpu/internal/sim.(*Engine).Run" or "iter.Pull[...].func1".
func funcPackage(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	if dot := strings.IndexByte(head[slash+1:], '.'); dot >= 0 {
		return head[:slash+1+dot]
	}
	return head
}
