package litmus

import (
	"testing"

	"denovogpu/internal/consistency"
	"denovogpu/internal/machine"
)

// Cross-device litmus variants: the same consistency obligations must
// hold when the communicating threads live on different devices and
// every coherence action crosses the inter-device link. The oracle is
// model-level (it knows scopes and program order, not placement), so
// the permitted outcome sets are unchanged — only the hardware path
// differs, which is exactly what these tests pin: hierarchical
// registration and cross-device invalidation must not open windows the
// single-device protocol closes.
//
// CU pins address the contiguous cross-device worker-index space (see
// Run): with NumCUs workers per device, CU NumCUs+k is worker k of
// device 1.

// xdevConfigs is the 2-device differential target set: the paper's
// five configurations.
func xdevConfigs() []machine.Config {
	cfgs := machine.AllConfigs()
	for i := range cfgs {
		cfgs[i].Devices = 2
	}
	return cfgs
}

// xdevCatalog places the classic communication shapes across the
// device boundary.
func xdevCatalog() []Entry {
	d1 := machine.DD().Defaults().NumCUs // first CU of device 1
	return []Entry{
		{
			Program: &Program{
				Name: "MP+xdev",
				Vars: []VarClass{Data, Sync},
				Threads: []Thread{
					{CU: 0, Ops: []Op{st(0, 1), rl(1, 1, gl)}},
					{CU: d1, Ops: []Op{aq(1, gl), ld(0)}},
				},
			},
			Weak:       func(o Outcome) bool { return o.Loads[1][0] == 1 && o.Loads[1][1] == 0 },
			AllowedDRF: false, AllowedHRF: false,
			Doc: "message passing across the inter-device link: the remote acquire must pull the writer's data through the owner device's home bank",
		},
		{
			Program: &Program{
				Name: "MP+xdev-preload",
				Vars: []VarClass{Data, Sync},
				Threads: []Thread{
					{CU: 0, Ops: []Op{st(0, 1), rl(1, 1, gl)}},
					{CU: d1, Ops: []Op{ld(0), aq(1, gl), ld(0)}},
				},
			},
			Weak:       func(o Outcome) bool { return o.Loads[1][1] == 1 && o.Loads[1][2] == 0 },
			AllowedDRF: false, AllowedHRF: false,
			Doc: "cross-device MP with the remote reader pre-caching stale data: the acquire must invalidate a copy fetched over the link",
		},
		{
			Program: &Program{
				Name: "MP+xdev-scoped",
				Vars: []VarClass{Data, Sync},
				Threads: []Thread{
					{CU: 0, Ops: []Op{st(0, 1), rl(1, 1, lo)}},
					{CU: d1, Ops: []Op{aq(1, lo), ld(0)}},
				},
			},
			Weak:       func(o Outcome) bool { return o.Loads[1][0] == 1 && o.Loads[1][1] == 0 },
			AllowedDRF: false, AllowedHRF: true,
			Doc: "cross-device MP through a locally scoped flag: the ultimate HRF scope mismatch (different devices, not just different CUs); DRF upgrades and forbids the stale read",
		},
		{
			Program: &Program{
				Name: "IRIW+xdev",
				Vars: []VarClass{Sync, Sync},
				Threads: []Thread{
					{CU: 0, Ops: []Op{rl(0, 1, gl)}},
					{CU: d1, Ops: []Op{rl(1, 1, gl)}},
					{CU: 1, Ops: []Op{aq(0, gl), aq(1, gl)}},
					{CU: d1 + 1, Ops: []Op{aq(1, gl), aq(0, gl)}},
				},
			},
			Weak: func(o Outcome) bool {
				return o.Loads[2][0] == 1 && o.Loads[2][1] == 0 && o.Loads[3][0] == 1 && o.Loads[3][1] == 0
			},
			AllowedDRF: false, AllowedHRF: false,
			Doc: "IRIW with one writer and one observer per device: the observers sit on different devices yet must agree on the write order (write atomicity survives the link)",
		},
	}
}

// TestXDevOracleAnnotations cross-checks the cross-device catalog's
// annotations against the oracle, as TestCatalogOracleAnnotations does
// for the single-device catalog. Placement is invisible to the oracle,
// so these must match the corresponding same-device shapes.
func TestXDevOracleAnnotations(t *testing.T) {
	for _, e := range xdevCatalog() {
		e := e
		t.Run(e.Program.Name, func(t *testing.T) {
			for _, m := range []consistency.Model{consistency.DRF, consistency.HRF} {
				allowed, err := Oracle(e.Program, m, 0)
				if err != nil {
					t.Fatal(err)
				}
				weakSeen := false
				for _, o := range allowed {
					if e.Weak(o) {
						weakSeen = true
						break
					}
				}
				want := e.AllowedDRF
				if m == consistency.HRF {
					want = e.AllowedHRF
				}
				if weakSeen != want {
					t.Errorf("%v oracle: weak outcome permitted=%v, catalog says %v (%s)", m, weakSeen, want, e.Doc)
				}
			}
		})
	}
}

// TestXDevConformance runs every cross-device shape under the
// 2-device builds of all five paper configurations across the schedule
// set, checking every observed outcome against the DRF/HRF oracle.
func TestXDevConformance(t *testing.T) {
	for _, e := range xdevCatalog() {
		e := e
		t.Run(e.Program.Name, func(t *testing.T) {
			t.Parallel()
			scheds := Schedules(e.Program, 5, fuzzSeed)
			v, err := Check(xdevConfigs(), e.Program, scheds)
			if err != nil {
				t.Fatal(err)
			}
			if v != nil {
				t.Fatal(v.Error())
			}
		})
	}
}

// TestXDevPinValidation pins the CU-index bounds: a 1-device machine
// must reject a pin into device 1's index range, a 2-device machine
// must accept it.
func TestXDevPinValidation(t *testing.T) {
	p := xdevCatalog()[0].Program // pins CU NumCUs
	cfg := machine.DD()
	if _, err := Run(cfg, p, ZeroSchedule(p)); err == nil {
		t.Fatal("single-device machine accepted a device-1 CU pin")
	}
	cfg.Devices = 2
	if _, err := Run(cfg, p, ZeroSchedule(p)); err != nil {
		t.Fatalf("2-device machine rejected a device-1 CU pin: %v", err)
	}
}
