package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"denovogpu"
	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
	"denovogpu/internal/mcheck"
	"denovogpu/internal/noc"
	"denovogpu/internal/obs"
	"denovogpu/internal/resultcache"
	"denovogpu/internal/stats"
	"denovogpu/internal/sweepd"
	"denovogpu/internal/workload/graph"
)

// workload is one named benchmark input. prepare is its set-up: it
// resolves the cells, generates seeded inputs, loads the reference
// outputs and starts any service the pass talks to. Every pass gets a
// freshly prepared job, so each one starts from the same state (for
// sweep-xdev, an empty result cache).
type workload struct {
	name    string
	prepare func(seed uint64) (job, error)
}

// job is a prepared workload. pass runs the timed body once and checks
// its outputs; t is nil on an untraced pass.
type job interface {
	pass(t *tracer) (*sample, error)
	close()
}

var workloads = map[string]workload{
	"sim-sync":       {"sim-sync", prepareSim(simSyncCells)},
	"sim-data":       {"sim-data", prepareSim(simDataCells)},
	"sweep-xdev":     {"sweep-xdev", prepareSweep(sweepCells, sweepWarmSubmits)},
	"mcheck-catalog": {"mcheck-catalog", prepareCheck(checkCells)},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cross lists every workload under every configuration, workload-major.
func cross(names, configs []string) []denovogpu.CellSpec {
	var cells []denovogpu.CellSpec
	for _, w := range names {
		for _, c := range configs {
			cells = append(cells, denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: c}, Workload: w})
		}
	}
	return cells
}

// simSyncCells are long, event-dense cells dominated by fine-grained
// synchronization: the engine, coroutine rendezvous, the L1 sync paths,
// L2 atomics and registrations, and mesh contention (Figs 3 and 4).
var simSyncCells = cross([]string{"FAM_G", "SPM_G", "TB_LG", "SPM_L", "UTS"}, []string{"GD", "GH", "DD", "DH"})

// simDataCells are short cells without fine-grained sync: the coalescer,
// L1 data hits and misses, the store buffer, DRAM fetches, host seeding
// and Verify, plus the per-phase drains of SPEC on the graph cells. The
// graph cells are the only seeded inputs of the benchmark.
var simDataCells = append(
	cross([]string{"BP", "ST", "LAVA", "NN", "SGEMM"}, []string{"GD", "GH", "DD", "DD+RO", "DH"}),
	cross([]string{"BFS", "PR", "SSSP"}, []string{"GD", "DD", "SPEC"})...)

// sweepCells are 2-device cells: the only ones that cross the
// inter-device link. One pass costs about 6 s of simulation on one
// worker, so two cold passes fit in a run.
var sweepCells = []denovogpu.CellSpec{
	{Config: denovogpu.ConfigSpec{Name: "DD", Devices: 2}, Workload: "TB_LGx2"},
	{Config: denovogpu.ConfigSpec{Name: "DD", Devices: 2}, Workload: "FAM_Gx2"},
	{Config: denovogpu.ConfigSpec{Name: "DD", Devices: 2}, Workload: "UTSx2"},
	{Config: denovogpu.ConfigSpec{Name: "GD", Devices: 2}, Workload: "UTSx2"},
}

// sweepWarmSubmits is how many all-hit resubmits follow each cold job:
// enough that one pass gives the warm p99 ten samples beyond it.
const sweepWarmSubmits = 1000

// sweepIdlePoll is the worker's sleep on an empty queue. The default
// 200 ms would land in the cold job's wall time.
const sweepIdlePoll = 5 * time.Millisecond

// checkCells are catalog cells the DPOR explorer completes in seconds.
// IRIW+sync (about 19.1M nodes) and IRIW+scoped under DH (10.9M) would
// each take over a minute, so they stay out.
var checkCells = []struct{ program, config string }{
	{"ISA2+transitive", "DH"},
	{"IRIW+scoped", "GH"},
	{"MP+preload", "DD"},
	{"MP+preload", "DD+RO"},
	{"MP+preload", "DH"},
	{"MP+preload", "DH+lazy"},
}

// sample is what one pass measured and checked.
type sample struct {
	attempted, failed int
	failures          []string
	// work is the pass's unit of work for work_per_s, done in workSec
	// host seconds (0 means the whole pass wall).
	work, workSec float64
	// exact holds deterministic totals: simulated statistics, explored
	// nodes and layer counts. Two passes on one input agree on every
	// key they share, traced or not.
	exact map[string]float64
	// host holds host-time measurements of the pass.
	host map[string]float64
	// reports holds each cell's canonical output bytes, and events its
	// fired engine events (which size the traced pass's recorders).
	reports map[string][]byte
	events  map[string]uint64
}

func newSample() *sample {
	return &sample{
		exact:   make(map[string]float64),
		host:    make(map[string]float64),
		reports: make(map[string][]byte),
		events:  make(map[string]uint64),
	}
}

// op records one attempted operation and, if err is set, its failure.
func (s *sample) op(label string, err error) {
	s.attempted++
	if err != nil {
		s.failed++
		s.failures = append(s.failures, label+": "+err.Error())
	}
}

// merge adds o's operation counts to s.
func (s *sample) merge(o *sample) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.failures = append(s.failures, o.failures...)
}

// layerCounters maps per-layer metric names to the report counters they
// sum (over every device of a multi-device machine).
var layerCounters = map[string]string{
	"gpu.mem_instrs":            "cu.mem_instrs",
	"gpu.sync_instrs":           "cu.sync_instrs",
	"gpu.line_accesses":         "cu.line_accesses",
	"l1.read_hits":              "l1.read_hits",
	"l1.read_misses":            "l1.read_misses",
	"l1.sync_hits":              "l1.sync_hits",
	"l1.sync_misses":            "l1.sync_misses",
	"l1.ownership_transfers":    "l1.ownership_transfers",
	"l1.flash_invalidations":    "l1.flash_invalidations",
	"l1.writebacks":             "l1.writebacks",
	"l1.writethroughs":          "l1.writethroughs",
	"sb.coalesced_writes":       "sb.coalesced_writes",
	"sb.release_drains":         "sb.release_drains",
	"sb.overflow_writethroughs": "sb.overflow_writethroughs",
	"l2.atomics":                "l2.atomics",
	"l2.dram_fetches":           "l2.dram_fetches",
	"l2.read_forwards":          "l2.read_forwards",
	"l2.reg_forwards":           "l2.reg_forwards",
	"l2.writethroughs":          "l2.writethroughs",
}

var flitClasses = map[string]stats.TrafficClass{
	"noc.flits.read":   stats.TrafficRead,
	"noc.flits.reg":    stats.TrafficRegistration,
	"noc.flits.wbwt":   stats.TrafficWBWT,
	"noc.flits.atomic": stats.TrafficAtomic,
	"noc.flits.xdev":   stats.TrafficXDev,
}

// addReport folds one cell's report into the pass totals.
func (s *sample) addReport(label string, rep denovogpu.Report, canonical []byte) {
	s.reports[label] = canonical
	s.events[label] = rep.Events
	s.exact["sim.events"] += float64(rep.Events)
	s.exact["sim_cycles"] += float64(rep.Cycles)
	s.exact["sim_flits"] += float64(rep.TotalFlits())
	s.exact["sim_energy_uj"] += rep.TotalEnergyPJ() / 1e6
	for name, class := range flitClasses {
		s.exact[name] += float64(rep.Flits[class])
	}
	byName := make(map[string]float64)
	for _, n := range rep.Stats.Names() {
		base := n
		// Multi-device counters carry a device prefix ("d1.l1.read_hits").
		if i := strings.IndexByte(n, '.'); i > 1 && n[0] == 'd' && isDigits(n[1:i]) {
			base = n[i+1:]
		}
		byName[base] += float64(rep.Stats.Get(n))
	}
	for name, counter := range layerCounters {
		s.exact[name] += byName[counter]
	}
}

func isDigits(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return s != ""
}

// simCell is one resolved simulation cell.
type simCell struct {
	label string
	cell  denovogpu.MatrixCell
	// want, if set, is the canonical report the cell must produce, and
	// wantFrom names where it came from.
	want     []byte
	wantFrom string
}

// resolveSim resolves cell specs, seeding the graph cells, and loads the
// golden report of every cell pinned at this input. Graph cells are
// pinned only at the default graph seed.
func resolveSim(specs []denovogpu.CellSpec, seed uint64) ([]simCell, error) {
	pinned := make(map[string]bool)
	for _, p := range denovogpu.PinnedCells() {
		pinned[p.Workload+"/"+p.Config.Name] = true
	}
	defaultSeed := graph.DefaultParams().Seed
	var cells []simCell
	for _, spec := range specs {
		graphCell := spec.Workload == "BFS" || spec.Workload == "PR" || spec.Workload == "SSSP"
		if graphCell {
			spec.Seed = seed
		}
		mc, err := spec.Cell()
		if err != nil {
			return nil, err
		}
		c := simCell{label: spec.Workload + "/" + mc.Config.Name(), cell: mc}
		if pinned[spec.Workload+"/"+spec.Config.Name] && spec.Config.Devices == 0 && (!graphCell || seed == 0 || seed == defaultSeed) {
			path := filepath.Join(goldenDir, denovogpu.ReportFileName(spec.Workload, mc.Config.Name()))
			if c.want, err = os.ReadFile(path); err != nil {
				return nil, fmt.Errorf("reading the golden report of %s: %w", c.label, err)
			}
			c.wantFrom = "committed golden " + path
		}
		cells = append(cells, c)
	}
	return cells, nil
}

type simJob struct{ cells []simCell }

func prepareSim(specs []denovogpu.CellSpec) func(uint64) (job, error) {
	return func(seed uint64) (job, error) {
		cells, err := resolveSim(specs, seed)
		if err != nil {
			return nil, err
		}
		return &simJob{cells}, nil
	}
}

func (j *simJob) close() {}

// pass simulates every cell serially. Untraced, a cell is one
// denovogpu.Run call; traced, it is split at the machine's public
// construction, run and verify steps so each gets a span.
func (j *simJob) pass(t *tracer) (*sample, error) {
	s := newSample()
	root := t.begin("pass", -1, -1)
	for i, c := range j.cells {
		s.op(c.label, runSimCell(t, s, i, root, c))
	}
	t.end(root)
	s.work = s.exact["sim.events"]
	return s, nil
}

func runSimCell(t *tracer, s *sample, i, parent int, c simCell) error {
	var (
		rep denovogpu.Report
		err error
	)
	if t == nil {
		rep, err = denovogpu.Run(c.cell.Config, c.cell.Workload)
	} else {
		rep, err = tracedRun(t, s, i, parent, c)
	}
	if err != nil {
		return err
	}
	sp := t.begin("report.marshal", i, parent)
	canonical, err := denovogpu.MarshalReport(rep)
	t.end(sp)
	if err != nil {
		return err
	}
	if c.want != nil && !bytes.Equal(canonical, c.want) {
		return fmt.Errorf("report differs from the %s", c.wantFrom)
	}
	s.addReport(c.label, rep, canonical)
	return nil
}

// maxRecorderEvents caps a cell's event recorder (32 bytes an event).
// Cells that would need more run without one, and their stall cycles
// are left out of the sums; obs.recorded_cells says how many were in.
const maxRecorderEvents = 1 << 21

// tracedRun is denovogpu.RunObserved taken apart: the same machine
// construction, host driver, error check, verification and report, with
// a span around each step, an event recorder sized from the untraced
// pass, and the machine's mesh and link counters read at the end.
func tracedRun(t *tracer, s *sample, i, parent int, c simCell) (denovogpu.Report, error) {
	cell := t.begin("cell", i, parent)
	defer t.end(cell)
	cfg, w := c.cell.Config, c.cell.Workload

	sp := t.begin("machine.new", i, cell)
	m := machine.New(cfg)
	t.end(sp)
	var rec *obs.Recorder
	// Recorders see two to three events per engine event; four leaves room.
	if n := 4*t.events[c.label] + 1<<16; t.events[c.label] > 0 && n <= maxRecorderEvents {
		rec = m.NewRecorder(int(n))
		m.SetObservability(rec, nil)
	}

	sp = t.begin("machine.run", i, cell)
	w.Host(m)
	t.end(sp)
	if err := m.Err(); err != nil {
		return denovogpu.Report{}, err
	}
	if w.Verify != nil {
		sp = t.begin("workload.verify", i, cell)
		err := w.Verify(m)
		t.end(sp)
		if err != nil {
			return denovogpu.Report{}, fmt.Errorf("verification failed: %w", err)
		}
	}
	st := m.Stats()
	rep := denovogpu.Report{
		Config:   cfg.Name(),
		Workload: w.Name,
		Cycles:   st.Cycles,
		Events:   m.Engine().Fired(),
		EnergyPJ: st.EnergyPJ,
		Flits:    st.Flits,
		Stats:    st,
	}

	for _, mesh := range m.Meshes() {
		s.exact["noc.packets"] += float64(mesh.Sent())
		var busiest uint64
		for n := noc.NodeID(0); n < noc.Nodes; n++ {
			for dir := 0; dir < 4; dir++ {
				busiest = max(busiest, mesh.LinkBusy(mesh.Base()+n, dir))
			}
		}
		s.exact["noc.link_busy_max"] += float64(busiest)
	}
	if f := m.Fabric(); f != nil {
		s.exact["interconnect.packets"] += float64(f.Sent())
		devices := m.Topology().Devices
		for a := 0; a < devices; a++ {
			for b := 0; b < devices; b++ {
				if a != b {
					s.exact["interconnect.link_busy_cycles"] += float64(f.LinkBusy(a, b))
				}
			}
		}
	}
	switch {
	case rec == nil:
	case rec.Dropped() > 0:
		s.exact["obs.dropped_cells"]++
	default:
		s.exact["obs.recorded_cells"]++
		for _, e := range rec.Events() {
			switch e.Kind {
			case obs.StallMem:
				s.exact["cu.stall_mem_cycles"] += float64(e.Dur)
			case obs.StallSync:
				s.exact["cu.stall_sync_cycles"] += float64(e.Dur)
			}
		}
	}
	return rep, nil
}

// checkCell is one resolved model-checking cell.
type checkCell struct {
	label    string
	cfg      machine.Config
	program  *litmus.Program
	outcomes []string // the pinned outcome keys
}

// pinnedOutcomes holds, per check cell, the sorted outcome keys its
// exploration must reach: the verdict, not the node count, so a change
// to the explorer's reduction still passes.
//
//go:embed mcheck_outcomes.json
var pinnedOutcomes []byte

type checkJob struct{ cells []checkCell }

func prepareCheck(specs []struct{ program, config string }) func(uint64) (job, error) {
	return func(uint64) (job, error) {
		var pinned map[string][]string
		if err := json.Unmarshal(pinnedOutcomes, &pinned); err != nil {
			return nil, fmt.Errorf("pinned outcomes: %w", err)
		}
		configs := make(map[string]machine.Config)
		for _, c := range mcheck.Configs() {
			configs[c.Name()] = c
		}
		var cells []checkCell
		for _, spec := range specs {
			cfg, ok := configs[spec.config]
			if !ok {
				return nil, fmt.Errorf("no model-checking configuration %q", spec.config)
			}
			p, err := denovogpu.LitmusProgramByName(spec.program)
			if err != nil {
				return nil, err
			}
			label := spec.program + "/" + spec.config
			want, ok := pinned[label]
			if !ok {
				return nil, fmt.Errorf("no pinned outcomes for %s", label)
			}
			cells = append(cells, checkCell{label, cfg, p, want})
		}
		return &checkJob{cells}, nil
	}
}

func (j *checkJob) close() {}

// pass explores every cell with the default DPOR explorer. A cell's
// output is correct when the check returns no error and no violation,
// every outcome it reaches is one the consistency oracle allows, and
// the outcome set equals the pinned one.
func (j *checkJob) pass(t *tracer) (*sample, error) {
	s := newSample()
	root := t.begin("pass", -1, -1)
	for i, c := range j.cells {
		s.op(c.label, runCheckCell(t, s, i, root, c))
	}
	t.end(root)
	s.work = s.exact["mcheck_nodes"]
	return s, nil
}

func runCheckCell(t *tracer, s *sample, i, parent int, c checkCell) error {
	cell := t.begin("cell", i, parent)
	defer t.end(cell)
	sp := t.begin("litmus.oracle", i, cell)
	allowed, err := litmus.Oracle(c.program, c.cfg.Model, 0)
	t.end(sp)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	sp = t.begin("mcheck.check", i, cell)
	t0 := time.Now()
	res, err := mcheck.Check(c.cfg, c.program, mcheck.Options{})
	s.host["mcheck.check_ms."+metricSafe(c.label)] = float64(time.Since(t0).Nanoseconds()) / 1e6
	t.end(sp)
	if err != nil {
		return err
	}
	s.exact["mcheck_nodes"] += float64(res.States)
	s.exact["mcheck.nodes."+metricSafe(c.label)] = float64(res.States)
	if res.Violation != nil {
		return fmt.Errorf("violation of %s: %s", res.Violation.Invariant, res.Violation.Detail)
	}
	got := make([]string, 0, len(res.Outcomes))
	for k := range res.Outcomes {
		if _, ok := allowed[k]; !ok {
			return fmt.Errorf("outcome %s is not allowed by the %v oracle", k, c.cfg.Model)
		}
		got = append(got, k)
	}
	sort.Strings(got)
	if !slices.Equal(got, c.outcomes) {
		return fmt.Errorf("outcomes %v, pinned %v", got, c.outcomes)
	}
	return nil
}

// metricSafe turns a cell label into a metric-name component:
// "MP+preload/DD+RO" becomes "MP-preload.DD-RO".
func metricSafe(label string) string {
	return strings.NewReplacer("+", "-", "/", ".").Replace(label)
}

// sweepJob is an in-process sweep service: a coordinator with a result
// cache in a fresh temporary directory, served over loopback HTTP, and
// one pull worker.
type sweepJob struct {
	cells      []denovogpu.CellSpec
	labels     []string
	warm       int
	dir        string
	cache      *resultcache.Cache
	srv        *http.Server
	client     *sweepd.Client
	stopWorker context.CancelFunc
	workerDone chan struct{}
	serveDone  chan struct{}
}

func prepareSweep(cells []denovogpu.CellSpec, warm int) func(uint64) (job, error) {
	return func(uint64) (job, error) {
		labels := make([]string, len(cells))
		for i, c := range cells {
			mc, err := c.Cell()
			if err != nil {
				return nil, err
			}
			labels[i] = c.Workload + "/" + mc.Config.Name()
		}
		dir, err := os.MkdirTemp("", "perfbench-cache-")
		if err != nil {
			return nil, err
		}
		cache, err := resultcache.Open(dir, 0)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		coord := sweepd.New(sweepd.Options{Cache: cache, Version: "perfbench"})
		ctx, cancel := context.WithCancel(context.Background())
		j := &sweepJob{
			cells:      cells,
			labels:     labels,
			warm:       warm,
			dir:        dir,
			cache:      cache,
			srv:        &http.Server{Handler: coord.Handler()},
			client:     &sweepd.Client{Base: "http://" + ln.Addr().String()},
			stopWorker: cancel,
			workerDone: make(chan struct{}),
			serveDone:  make(chan struct{}),
		}
		worker := &sweepd.Worker{Server: j.client.Base, Name: "w0", IdlePoll: sweepIdlePoll}
		go func() {
			defer close(j.serveDone)
			_ = j.srv.Serve(ln) // returns http.ErrServerClosed at close
		}()
		go func() {
			defer close(j.workerDone)
			_ = worker.Run(ctx) // returns once ctx is canceled
		}()
		return j, nil
	}
}

func (j *sweepJob) close() {
	j.stopWorker()
	<-j.workerDone
	j.srv.Close()
	<-j.serveDone
	os.RemoveAll(j.dir)
}

// pass submits the spec cold, follows the job to completion and fetches
// every report, then resubmits the same spec warm j.warm times. Every
// cold cell must succeed and miss the cache; every warm job must finish
// at submit with every cell a cache hit and every report byte-identical
// to the cold one.
func (j *sweepJob) pass(t *tracer) (*sample, error) {
	ctx := context.Background()
	s := newSample()
	spec := denovogpu.MatrixSpec{Cells: j.cells}
	root := t.begin("pass", -1, -1)
	defer t.end(root)

	cold := t.begin("sweepd.cold_job", -1, root)
	t0 := time.Now()
	sp := t.begin("sweepd.submit", -1, cold)
	sr, err := j.client.Submit(ctx, spec)
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("cold submit: %w", err)
	}
	var cellWallMS float64
	err = j.client.StreamEvents(ctx, sr.Status.ID, func(e sweepd.Event) error {
		if e.State == sweepd.StateDone {
			cellWallMS += e.WallMS
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("following the cold job: %w", err)
	}
	st, err := j.client.Job(ctx, sr.Status.ID)
	coldWall := time.Since(t0)
	t.end(cold)
	if err != nil {
		return nil, err
	}
	s.host["cold_job_s"] = coldWall.Seconds()
	s.host["sweepd.overhead_s"] = coldWall.Seconds() - cellWallMS/1e3
	if st.State != "done" || st.Done != len(j.cells) || st.CacheHits != 0 {
		err := fmt.Errorf("cold job ended %s with %d/%d cells done, %d cache hits: %s", st.State, st.Done, len(j.cells), st.CacheHits, st.Error)
		for _, label := range j.labels {
			s.op(label+" (cold)", err)
		}
		return s, nil
	}

	coldReports := make([][]byte, len(j.cells))
	for i := range j.cells {
		b, err := j.cellReport(ctx, t, root, sr.Status.ID, i)
		if err == nil {
			coldReports[i] = b
			var rep denovogpu.Report
			if rep, err = denovogpu.UnmarshalReport(b); err == nil {
				s.addReport(j.labels[i], rep, b)
			}
		}
		s.op(j.labels[i]+" (cold)", err)
	}

	// Warm jobs need no worker. Stopping it keeps its idle lease polls
	// off the coordinator while the submits are timed.
	j.stopWorker()
	<-j.workerDone

	var latencies []float64
	for k := 0; k < j.warm; k++ {
		sp := t.begin("sweepd.warm_submit", -1, root)
		t0 := time.Now()
		wr, err := j.client.Submit(ctx, spec)
		lat := time.Since(t0)
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("warm submit: %w", err)
		}
		latencies = append(latencies, float64(lat.Nanoseconds())/1e6)
		ws := wr.Status
		allHit := ws.State == "done" && ws.CacheHits == len(j.cells) && ws.Done == len(j.cells)
		for i := range j.cells {
			b, err := j.cellReport(ctx, t, root, ws.ID, i)
			switch {
			case err != nil:
			case !allHit:
				err = fmt.Errorf("warm job ended %s with %d cache hits of %d cells", ws.State, ws.CacheHits, len(j.cells))
			case !bytes.Equal(b, coldReports[i]):
				err = errors.New("warm report differs from the cold one")
			}
			s.op(j.labels[i]+" (warm)", err)
		}
	}
	s.host["warm_submit_ms_p50"] = quantile(latencies, 0.5)
	s.host["sweepd.warm_submit_ms_p99"] = quantile(latencies, 0.99)
	// The gated throughput is the cold path's: simulated events per
	// second of the cold job. Warm latency swings by a factor of two
	// within seconds on a shared host, so it stays a per-layer metric.
	s.work = s.exact["sim.events"]
	s.workSec = coldWall.Seconds()
	cs := j.cache.Stats()
	s.exact["resultcache.hits"] = float64(cs.Hits)
	s.exact["resultcache.misses"] = float64(cs.Misses)
	s.exact["resultcache.bytes"] = float64(cs.Bytes)
	return s, nil
}

func (j *sweepJob) cellReport(ctx context.Context, t *tracer, parent int, jobID string, i int) ([]byte, error) {
	sp := t.begin("sweepd.cell_report", i, parent)
	defer t.end(sp)
	return j.client.CellReport(ctx, jobID, i)
}

// directRun simulates the sweep's cells in-process, outside the
// service, to read the counters the service does not return (mesh and
// link packets and occupancy, stall spans). Each report must equal the
// one the service computed.
func (j *sweepJob) directRun(t *tracer, s *sample, reports map[string][]byte) error {
	cells := make([]simCell, len(j.cells))
	for i, spec := range j.cells {
		mc, err := spec.Cell()
		if err != nil {
			return err
		}
		cells[i] = simCell{label: j.labels[i], cell: mc, want: reports[j.labels[i]], wantFrom: "report the service computed"}
		if cells[i].want == nil {
			return fmt.Errorf("no service report for %s", cells[i].label)
		}
	}
	root := t.begin("direct", -1, -1)
	defer t.end(root)
	for i, c := range cells {
		s.op(c.label+" (direct)", runSimCell(t, s, i, root, c))
	}
	return nil
}
