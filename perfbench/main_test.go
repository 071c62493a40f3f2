package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"denovogpu"
)

func TestMain(m *testing.M) {
	goldenDir = filepath.Join("..", goldenDir)
	os.Exit(m.Run())
}

// smallSim is a quick cell mix: a golden-pinned sync cell, a pinned data
// cell, and a seeded graph cell under the phased configuration.
var smallSim = []denovogpu.CellSpec{
	{Config: denovogpu.ConfigSpec{Name: "GD"}, Workload: "UTS"},
	{Config: denovogpu.ConfigSpec{Name: "DD"}, Workload: "LAVA"},
	{Config: denovogpu.ConfigSpec{Name: "SPEC"}, Workload: "BFS"},
}

func mustPass(t *testing.T, j job, tr *tracer) *sample {
	t.Helper()
	s, err := j.pass(tr)
	if err != nil {
		t.Fatal(err)
	}
	if s.failed != 0 || len(s.failures) != 0 {
		t.Fatalf("%d of %d operations failed: %v", s.failed, s.attempted, s.failures)
	}
	return s
}

func prepared(t *testing.T, prepare func(uint64) (job, error), seed uint64) job {
	t.Helper()
	j, err := prepare(seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(j.close)
	return j
}

// Two runs with one seed must agree on every simulated statistic,
// explored node count and per-layer count, traced or not.
func TestSameSeedSameCounts(t *testing.T) {
	prepare := prepareSim(smallSim)
	u := mustPass(t, prepared(t, prepare, 42), nil)
	first := mustPass(t, prepared(t, prepare, 42), &tracer{events: u.events})
	second := mustPass(t, prepared(t, prepare, 42), &tracer{events: u.events})
	if err := sameOutputs(u, first); err != nil {
		t.Errorf("traced vs untraced: %v", err)
	}
	if !reflect.DeepEqual(first.exact, second.exact) {
		t.Errorf("two traced passes differ:\n%v\n%v", first.exact, second.exact)
	}
	for _, k := range []string{"sim_cycles", "noc.packets", "l1.read_hits", "cu.stall_mem_cycles", "obs.recorded_cells"} {
		if first.exact[k] == 0 {
			t.Errorf("%s is 0; the traced pass did not count it", k)
		}
	}

	check := prepareCheck(checkCells[2:3])
	a := mustPass(t, prepared(t, check, 1), nil)
	b := mustPass(t, prepared(t, check, 2), &tracer{})
	if a.exact["mcheck_nodes"] == 0 || !reflect.DeepEqual(a.exact, b.exact) {
		t.Errorf("mcheck counts differ or are empty: %v vs %v", a.exact, b.exact)
	}
}

// The seed reaches the graph cells only.
func TestSeedChangesOnlyGraphCells(t *testing.T) {
	prepare := prepareSim(smallSim)
	a := mustPass(t, prepared(t, prepare, 42), nil)
	b := mustPass(t, prepared(t, prepare, 7), nil)
	cycles := func(s *sample, label string) uint64 {
		rep, err := denovogpu.UnmarshalReport(s.reports[label])
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return rep.Cycles
	}
	if cycles(a, "BFS/SPEC") == cycles(b, "BFS/SPEC") {
		t.Error("seeds 42 and 7 gave the graph cell the same cycle count")
	}
	for _, label := range []string{"UTS/GD", "LAVA/DD"} {
		if cycles(a, label) != cycles(b, label) {
			t.Errorf("%s changed with the seed", label)
		}
	}
}

// A wrong output must count as a failed operation.
func TestCorruptedOutputFails(t *testing.T) {
	dir := t.TempDir()
	for _, c := range smallSim[:2] {
		name := denovogpu.ReportFileName(c.Workload, c.Config.Name)
		data, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if c.Workload == "LAVA" {
			data[len(data)/2] ^= 1
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	saved := goldenDir
	goldenDir = dir
	defer func() { goldenDir = saved }()
	s, err := prepared(t, prepareSim(smallSim[:2]), 42).pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.attempted != 2 || s.failed != 1 {
		t.Fatalf("corrupted golden: %d attempted, %d failed, want 2 and 1", s.attempted, s.failed)
	}
	if r := newResult(s); r.Correct {
		t.Error("result with a failed operation reads correct")
	}

	j := prepared(t, prepareCheck(checkCells[2:3]), 0).(*checkJob)
	j.cells[0].outcomes = j.cells[0].outcomes[1:]
	if s, err := j.pass(nil); err != nil || s.failed != 1 {
		t.Fatalf("wrong pinned outcomes: err %v, failed %v", err, s)
	}
}

// A small sweep: the cold job misses, every warm resubmit hits, and
// every warm report equals the cold one.
func TestSweepColdThenWarm(t *testing.T) {
	cells := []denovogpu.CellSpec{{Config: denovogpu.ConfigSpec{Name: "DD", Devices: 2}, Workload: "UTSx2"}}
	s := mustPass(t, prepared(t, prepareSweep(cells, 3), 0), nil)
	if s.attempted != 4 || s.exact["resultcache.misses"] != 1 || s.exact["resultcache.hits"] != 3 {
		t.Errorf("attempted %d, cache %v", s.attempted, s.exact)
	}
	if s.exact["noc.flits.xdev"] == 0 || s.host["cold_job_s"] <= 0 || s.work != s.exact["sim.events"] {
		t.Errorf("2-device cold job measured nothing: %v %v", s.exact, s.host)
	}
}

// BENCHMARK.json and the benchmark must name the same workloads and
// metrics, in the same order and units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if want := workloadNames(); !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, code has %v", names, want)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit, Better string }
		code   []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.listed) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, code %d", len(c.listed), len(c.code))
			continue
		}
		for i, m := range c.listed {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), code %s (%s)", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"denovogpu/internal/sim.(*Engine).Run":                   "denovogpu/internal/sim",
		"denovogpu/internal/workload/sync.Mutex.func1":           "denovogpu/internal/workload/sync",
		"denovogpu/internal/wordmap.(*Map[go.shape.uint32]).Get": "denovogpu/internal/wordmap",
		"denovogpu/internal/mcheck.independent[go.shape.uint64]": "denovogpu/internal/mcheck",
		"denovogpu.RunObserved":                                  "denovogpu",
		"runtime.nextFreeFast (inline)":                          "runtime",
		"iter.Pull[go.shape.struct {}].func1":                    "iter",
		"internal/runtime/atomic.(*Uint32).Add (inline)":         "internal/runtime/atomic",
		"aeshashbody": "aeshashbody",
		"denovogpu/internal/l2.(*Bank).handle.(*Bank).registerFunc1": "denovogpu/internal/l2",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-sync", "--trace", "2"},
		{"--workload", "sim-sync", "--seconds", "0"},
		{"--workload", "sim-sync", "extra"},
		{"--bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
