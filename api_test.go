package denovogpu_test

import (
	"strings"
	"testing"

	"denovogpu"
	"denovogpu/internal/workload"
)

func TestConfigByName(t *testing.T) {
	for _, name := range []string{"GD", "GH", "DD", "DD+RO", "DH", "SPEC"} {
		cfg, err := denovogpu.ConfigByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Name() != name {
			t.Fatalf("round trip %q -> %q", name, cfg.Name())
		}
	}
	for _, name := range []string{"nope", "MESI"} {
		if _, err := denovogpu.ConfigByName(name); err == nil {
			t.Fatalf("unknown config %q must error", name)
		}
	}
}

func TestAllConfigsOrder(t *testing.T) {
	var names []string
	for _, c := range denovogpu.AllConfigs() {
		names = append(names, c.Name())
	}
	if strings.Join(names, ",") != "GD,GH,DD,DD+RO,DH" {
		t.Fatalf("config order %v", names)
	}
}

func TestWorkloadInventoryMatchesTable4(t *testing.T) {
	// 10 applications + 4 global-sync + 9 local-sync = 23 Table 4
	// benchmarks, plus the 3 graph-analytics workloads and the 13
	// 2-device sync ports (both beyond the paper).
	if got := len(denovogpu.Workloads()); got != 39 {
		t.Fatalf("registered benchmarks = %d, want 39", got)
	}
	if got := len(denovogpu.WorkloadsByCategory(denovogpu.Graph)); got != 3 {
		t.Fatalf("graph = %d, want 3", got)
	}
	if got := len(denovogpu.WorkloadsByCategory(denovogpu.NoSync)); got != 10 {
		t.Fatalf("no-sync = %d, want 10", got)
	}
	if got := len(denovogpu.WorkloadsByCategory(denovogpu.GlobalSync)); got != 4 {
		t.Fatalf("global-sync = %d, want 4", got)
	}
	if got := len(denovogpu.WorkloadsByCategory(denovogpu.LocalSync)); got != 9 {
		t.Fatalf("local-sync = %d, want 9", got)
	}
	if got := len(denovogpu.WorkloadsByCategory(workload.MultiDev)); got != 13 {
		t.Fatalf("multi-device = %d, want 13", got)
	}
}

func TestRunByNameUnknown(t *testing.T) {
	if _, err := denovogpu.RunByName(denovogpu.DD(), "NOPE"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestRunKernelRoundTrip(t *testing.T) {
	kernel := func(c *denovogpu.Ctx) {
		v := c.Load(0x1000)
		c.Store(0x2000, v*2)
	}
	setup := func(h denovogpu.Host) { h.Write(0x1000, 21) }
	verify := func(h denovogpu.Host) error {
		if got := h.Read(0x2000); got != 42 {
			t.Fatalf("kernel result %d", got)
		}
		return nil
	}
	for _, cfg := range denovogpu.AllConfigs() {
		rep, err := denovogpu.RunKernel(cfg, "double", kernel, 1, 32, setup, verify)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		if rep.Cycles == 0 || rep.TotalEnergyPJ() <= 0 {
			t.Fatalf("%s: empty report %+v", cfg.Name(), rep)
		}
		// (Flit crossings can legitimately be zero here: both lines are
		// homed at the same node as the executing CU.)
	}
}

func TestRunVerificationFailureSurfaces(t *testing.T) {
	w := denovogpu.Workload{
		Name:   "bad",
		Host:   func(h denovogpu.Host) { h.Launch(func(*denovogpu.Ctx) {}, 1, 32) },
		Verify: func(denovogpu.Host) error { return errBoom{} },
	}
	if _, err := denovogpu.Run(denovogpu.GD(), w); err == nil || !strings.Contains(err.Error(), "verification failed") {
		t.Fatalf("verification failure not surfaced: %v", err)
	}
}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }

// TestConfigByNameIndependentCopies guards the contract that resolved
// configs are free to mutate: two lookups must not share state, and
// mutations must not leak into AllConfigs.
func TestConfigByNameIndependentCopies(t *testing.T) {
	a, err := denovogpu.ConfigByName("DD")
	if err != nil {
		t.Fatal(err)
	}
	a.NumCUs = 2
	a.LazyWrites = true
	b, err := denovogpu.ConfigByName("DD")
	if err != nil {
		t.Fatal(err)
	}
	if b.NumCUs == 2 || b.LazyWrites {
		t.Fatalf("mutating one resolved config leaked into the next lookup: %+v", b)
	}
	if got := denovogpu.AllConfigs()[2]; got.NumCUs == 2 || got.LazyWrites {
		t.Fatalf("mutating a resolved config leaked into AllConfigs: %+v", got)
	}
}

// TestRunDeterminism pins the simulator's determinism contract: the
// same (configuration, workload) pair run twice must produce
// bit-identical measurements. One representative benchmark per paper
// category (Figures 2, 3, 4).
func TestRunDeterminism(t *testing.T) {
	benches := []string{"LAVA", "FAM_G", "UTS"}
	if testing.Short() {
		benches = []string{"LAVA", "UTS"}
	}
	for _, bench := range benches {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			a, err := denovogpu.RunByName(denovogpu.DD(), bench)
			if err != nil {
				t.Fatal(err)
			}
			b, err := denovogpu.RunByName(denovogpu.DD(), bench)
			if err != nil {
				t.Fatal(err)
			}
			if a.Cycles != b.Cycles {
				t.Errorf("Cycles differ across identical runs: %d vs %d", a.Cycles, b.Cycles)
			}
			if a.EnergyPJ != b.EnergyPJ {
				t.Errorf("EnergyPJ differs across identical runs: %v vs %v", a.EnergyPJ, b.EnergyPJ)
			}
			if a.Flits != b.Flits {
				t.Errorf("Flits differ across identical runs: %v vs %v", a.Flits, b.Flits)
			}
		})
	}
}
