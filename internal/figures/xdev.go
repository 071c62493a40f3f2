package figures

// Multi-device study (beyond the paper): the 2-device ports of the
// Stuart-Owens suite and UTS, plus the device-local vs cross-device
// synchronization cost cliff that motivates keeping synchronization
// device-resident when the inter-device link (internal/interconnect)
// separates the communicating CUs.

import (
	"fmt"

	"denovogpu"
	"denovogpu/internal/coherence"
	"denovogpu/internal/machine"
	"denovogpu/internal/mem"
	"denovogpu/internal/stats"
	"denovogpu/internal/workload"
)

// xdevBenches is the registered 2-device sync suite, Figure 3/4 order.
var xdevBenches = []string{
	"FAM_Gx2", "SLM_Gx2", "SPM_Gx2", "SPMBO_Gx2",
	"SPM_Lx2", "SPMBO_Lx2", "FAM_Lx2", "SLM_Lx2",
	"SS_Lx2", "SSBO_Lx2", "TBEX_LGx2", "TB_LGx2", "UTSx2",
}

// XDevBenches exposes the 2-device suite ordering for external
// reporting (CI's smoke job).
func XDevBenches() []string { return append([]string(nil), xdevBenches...) }

// xdevConfig resolves a named paper configuration at a device count
// through the wire-spec path (matrixspec), so the sweep exercises the
// same resolution a remote or cached cell would.
func xdevConfig(name string, devices int) denovogpu.Config {
	cfg, err := denovogpu.ConfigSpec{Name: name, Devices: devices}.Resolve()
	if err != nil {
		panic(err) // the caller passed a compile-time-known paper name
	}
	return cfg
}

// FigXDev runs the 2-device sync suite under the 2-device builds of
// G* and D*, normalized to GDx2: the multi-device counterpart of
// Figures 3 and 4.
func FigXDev(workers int) *Matrix {
	return SweepN(xdevBenches, []denovogpu.Config{
		xdevConfig("GD", 2), xdevConfig("DD", 2),
	}, workers)
}

// XDevCliffRun is one ping-pong measurement of the cliff experiment.
type XDevCliffRun struct {
	Cycles    uint64
	XDevFlits uint64
}

// XDevCliffResult contrasts flag ping-pong between a device-local CU
// pair and a cross-device CU pair on the same machine.
type XDevCliffResult struct {
	Config string
	Iters  int
	// CrossCU is the second worker's index in the cross-device run
	// (NumCUs: the first CU of device 1).
	CrossCU int
	Local   XDevCliffRun // CUs 0 and 1, both on device 0
	Cross   XDevCliffRun // CU 0 (device 0) and CU CrossCU (device 1)
}

// Ratio is the cross-device slowdown (cross cycles / local cycles).
func (r XDevCliffResult) Ratio() float64 {
	if r.Local.Cycles == 0 {
		return 0
	}
	return float64(r.Cross.Cycles) / float64(r.Local.Cycles)
}

// XDevCliff measures the device-local vs cross-device synchronization
// cost cliff: two thread blocks ping-pong a globally scoped flag
// iters times, once with both blocks on device 0 and once with the
// blocks on different devices, on an otherwise idle N-device machine
// (the named paper configuration at the given device count). Every
// handoff of the cross-device run pays the inter-device link, so the
// cycle ratio directly prices a synchronization crossing.
func XDevCliff(config string, devices, iters int) (XDevCliffResult, error) {
	if devices < 2 {
		return XDevCliffResult{}, fmt.Errorf("figures: cliff needs >= 2 devices, got %d", devices)
	}
	cfg := xdevConfig(config, devices)
	res := XDevCliffResult{Config: cfg.Name(), Iters: iters, CrossCU: cfg.NumCUs}
	var err error
	if res.Local, err = pingPong(cfg, 0, 1, iters); err != nil {
		return XDevCliffResult{}, fmt.Errorf("figures: device-local pair: %w", err)
	}
	if res.Cross, err = pingPong(cfg, 0, cfg.NumCUs, iters); err != nil {
		return XDevCliffResult{}, fmt.Errorf("figures: cross-device pair: %w", err)
	}
	return res, nil
}

// pingPong runs the flag ping-pong between two pinned CUs (worker
// indices, machine.PlaceTB) and returns the run's measurements.
func pingPong(cfg machine.Config, cuA, cuB, iters int) (XDevCliffRun, error) {
	cfg = cfg.Defaults()
	m := machine.New(cfg)
	const flagAddr = mem.Addr(0x10_0000)
	role := map[int]int{
		m.PlaceTB(cuA, 0): 0,
		m.PlaceTB(cuB, 0): 1,
	}
	kernel := func(c *workload.Ctx) {
		r, pinned := role[c.TB]
		if !pinned {
			return
		}
		for i := 0; i < iters; i++ {
			want := uint32(2*i + r)
			for c.AtomicLoad(flagAddr, coherence.ScopeGlobal) != want {
				c.Wait(40)
			}
			c.AtomicStore(flagAddr, want+1, coherence.ScopeGlobal)
		}
	}
	m.Launch(kernel, cfg.Devices*cfg.NumCUs, 32)
	if err := m.Err(); err != nil {
		return XDevCliffRun{}, err
	}
	if got := m.Read(flagAddr); got != uint32(2*iters) {
		return XDevCliffRun{}, fmt.Errorf("ping-pong finished at %d, want %d", got, 2*iters)
	}
	st := m.Stats()
	return XDevCliffRun{Cycles: st.Cycles, XDevFlits: st.Flits[stats.TrafficXDev]}, nil
}

// FormatXDevCliff renders the cliff as a markdown table.
func FormatXDevCliff(r XDevCliffResult) string {
	var b []byte
	b = fmt.Appendf(b, "| pair (%s, %d handoffs) | cycles | XDev flits |\n|---|---|---|\n", r.Config, 2*r.Iters)
	b = fmt.Appendf(b, "| device-local (CU0, CU1) | %d | %d |\n", r.Local.Cycles, r.Local.XDevFlits)
	b = fmt.Appendf(b, "| cross-device (CU0, CU%d) | %d | %d |\n", r.CrossCU, r.Cross.Cycles, r.Cross.XDevFlits)
	b = fmt.Appendf(b, "\ncross-device / device-local cycle ratio: %.2fx\n", r.Ratio())
	return string(b)
}
