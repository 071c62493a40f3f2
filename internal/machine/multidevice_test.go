// Multi-device regression suite: the Devices > 1 machine (per-device
// mesh domains joined by internal/interconnect, hierarchical DeNovo
// registration, per-device counter namespaces) must verify real
// workloads, simulate deterministically, and — the load-bearing
// property — leave every single-device byte untouched.
package machine_test

import (
	"bytes"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"denovogpu"
	"denovogpu/internal/figures"
	"denovogpu/internal/stats"
)

// xdevConfig resolves a paper config at a device count through the
// wire-spec path, as a remote or cached cell would.
func xdevConfig(t *testing.T, name string, devices int) denovogpu.Config {
	t.Helper()
	cfg, err := (denovogpu.ConfigSpec{Name: name, Devices: devices}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestExplicitSingleDeviceGoldenIdentity pins the tentpole's
// compatibility contract from the explicit side: a config that spells
// Devices: 1 out loud (rather than defaulting) reproduces the
// committed golden bytes. Combined with TestGoldenReports (implicit
// default), single-device behavior is provably unchanged.
func TestExplicitSingleDeviceGoldenIdentity(t *testing.T) {
	for _, pair := range []goldenPair{{"UTS", "DD"}, {"ST", "GD"}, {"SPM_L", "DH"}} {
		pair := pair
		t.Run(pair.workload+"/"+pair.config, func(t *testing.T) {
			t.Parallel()
			rep, err := denovogpu.RunByName(xdevConfig(t, pair.config, 1), pair.workload)
			if err != nil {
				t.Fatal(err)
			}
			got := mustCanonical(t, rep)
			want, err := os.ReadFile(goldenPath(pair.workload, pair.config))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("explicit Devices:1 run of %s under %s deviates from the committed golden", pair.workload, pair.config)
			}
		})
	}
}

// TestTwoDeviceDeterminism: a 2-device simulation is bit-for-bit
// repeatable — same cycles, events, energy, flits, and every counter —
// whether cells run serially or through the parallel orchestrator.
func TestTwoDeviceDeterminism(t *testing.T) {
	cfg := xdevConfig(t, "DD", 2)
	w, err := denovogpu.WorkloadByName("UTSx2")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := denovogpu.Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	results, err := denovogpu.RunMatrix([]denovogpu.MatrixCell{
		{Config: cfg, Workload: w}, {Config: cfg, Workload: w},
	}, denovogpu.MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref := mustCanonical(t, serial)
	for i, res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if !bytes.Equal(ref, mustCanonical(t, res.Report)) {
			t.Errorf("parallel 2-device run %d diverged from the serial run", i)
		}
	}
	if serial.Flits[stats.TrafficXDev] == 0 {
		t.Error("2-device UTS crossed zero inter-device flits; the link is not being exercised")
	}
}

// TestTwoDeviceTextTrace: the text trace of a 2-device run holds
// protocol events on both devices' tracks (device 1 owns global nodes
// 16..31), because the recorder reaches every mesh, bank, L1 and CU.
func TestTwoDeviceTextTrace(t *testing.T) {
	w, err := denovogpu.WorkloadByName("UTSx2")
	if err != nil {
		t.Fatal(err)
	}
	var rec *denovogpu.Recorder
	if _, err := denovogpu.RunObserved(xdevConfig(t, "DD", 2), w, func(clock func() uint64) *denovogpu.Recorder {
		rec = denovogpu.NewRecorder(clock, 0)
		return rec
	}, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	node := regexp.MustCompile(`^(?:cu-|bank-|n)(\d+)`)
	var perDevice [2]int
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		m := node.FindStringSubmatch(f[1])
		if m == nil {
			t.Fatalf("event line %q names no node track", line)
		}
		n, _ := strconv.Atoi(m[1])
		perDevice[n/16]++
	}
	if perDevice[0] == 0 || perDevice[1] == 0 {
		t.Errorf("text trace events per device = %v, want both non-zero", perDevice)
	}
}

// TestTwoDeviceSuiteVerifies runs a spread of the 2-device sync suite
// under 2-device DeNovo and GPU-coherence machines. Every workload
// computes real results and self-verifies, so a pass means the
// hierarchical registration and cross-device invalidation paths
// produce correct memory semantics under load, not just under litmus
// microscopes.
func TestTwoDeviceSuiteVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("24-cell 2-device matrix in -short mode")
	}
	benches := []string{"SPM_Gx2", "FAM_Gx2", "SPM_Lx2", "SS_Lx2", "TB_LGx2", "UTSx2"}
	configs := []denovogpu.Config{
		xdevConfig(t, "DD", 2), xdevConfig(t, "GD", 2),
		xdevConfig(t, "DH", 2), xdevConfig(t, "GH", 2),
	}
	var cells []denovogpu.MatrixCell
	for _, b := range benches {
		w, err := denovogpu.WorkloadByName(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range configs {
			cells = append(cells, denovogpu.MatrixCell{Config: c, Workload: w})
		}
	}
	results, err := denovogpu.RunMatrix(cells, denovogpu.MatrixOptions{KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		cell := cells[i]
		if res.Err != nil {
			t.Errorf("%s under %s: %v", cell.Workload.Name, cell.Config.Name(), res.Err)
			continue
		}
		if res.Report.Flits[stats.TrafficXDev] == 0 {
			// Line homes interleave across both devices' L2 banks, so
			// even device-local suites touch the link.
			t.Errorf("%s under %s: zero XDev flits", cell.Workload.Name, cell.Config.Name())
		}
	}
}

// TestDeviceCounterNamespaces: per-device stats views prefix counter
// keys with the device index, so the two devices' controllers never
// collide in the machine-wide counter map.
func TestDeviceCounterNamespaces(t *testing.T) {
	rep, err := denovogpu.RunByName(xdevConfig(t, "DD", 2), "SPM_Gx2")
	if err != nil {
		t.Fatal(err)
	}
	var d0, d1 bool
	for _, n := range rep.Stats.Names() {
		switch {
		case len(n) > 3 && n[:3] == stats.DevPrefix(0):
			d0 = true
		case len(n) > 3 && n[:3] == stats.DevPrefix(1):
			d1 = true
		}
	}
	if !d0 || !d1 {
		t.Errorf("device-prefixed counters missing (d0 %v, d1 %v); names: %v", d0, d1, rep.Stats.Names())
	}
}

// TestMultiDeviceConfigNames: device count suffixes the configuration
// name, so reports and cache artifacts are self-describing.
func TestMultiDeviceConfigNames(t *testing.T) {
	cfg := denovogpu.DD()
	if cfg.Name() != "DD" {
		t.Fatalf("base name %q", cfg.Name())
	}
	cfg.Devices = 2
	if cfg.Name() != "DDx2" {
		t.Fatalf("2-device name %q, want DDx2", cfg.Name())
	}
}

// TestCrossDeviceSyncCliff: the headline number of the PR — on the
// same 2-device machine, synchronization between CUs on one device is
// strictly cheaper than between CUs on different devices. EXPERIMENTS.md
// records the pinned measurement; this guards the direction, and that
// the device-local pair's traffic genuinely stays off the link while
// the cross-device pair genuinely uses it.
func TestCrossDeviceSyncCliff(t *testing.T) {
	cliff, err := figures.XDevCliff("DD", 2, 25)
	if err != nil {
		t.Fatal(err)
	}
	if cliff.Cross.Cycles <= cliff.Local.Cycles {
		t.Errorf("cross-device ping-pong (%d cycles) not more expensive than device-local (%d cycles)",
			cliff.Cross.Cycles, cliff.Local.Cycles)
	}
	if cliff.Local.XDevFlits != 0 {
		t.Errorf("device-local pair crossed the inter-device link (%d flits); flag address should home on device 0", cliff.Local.XDevFlits)
	}
	if cliff.Cross.XDevFlits == 0 {
		t.Error("cross-device pair crossed zero inter-device flits")
	}
	if got := figures.FormatXDevCliff(cliff); !strings.Contains(got, "cycle ratio:") {
		t.Errorf("cliff rendering missing the ratio line:\n%s", got)
	}
	t.Logf("sync cliff: device-local %d cycles, cross-device %d cycles (%.2fx)",
		cliff.Local.Cycles, cliff.Cross.Cycles, cliff.Ratio())
}
