package denovogpu_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"denovogpu"
	"denovogpu/internal/stats"
)

// TestCellKeyFailsClosedOnConfigFields pins CellKey's fail-closed
// contract by reflection: the canonical cache-key encoding marshals
// Defaults()-canonicalized Config with encoding/json, so EVERY field of
// machine.Config must surface in that JSON. A field that is unexported,
// json-skipped ("-") or omitempty-elided would change simulated
// behavior without changing the key — a warm cache would then satisfy
// lookups with reports from a differently-configured machine. Anyone
// adding a Config field trips this test unless the field participates
// in the key.
func TestCellKeyFailsClosedOnConfigFields(t *testing.T) {
	cfg := denovogpu.DD().Defaults()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	tp := reflect.TypeOf(cfg)
	for i := 0; i < tp.NumField(); i++ {
		f := tp.Field(i)
		if !f.IsExported() {
			t.Errorf("Config field %s is unexported: invisible to CellKey's canonical encoding", f.Name)
			continue
		}
		name := f.Name
		if tag, ok := f.Tag.Lookup("json"); ok {
			parts := strings.Split(tag, ",")
			if parts[0] == "-" {
				t.Errorf("Config field %s has json:\"-\": excluded from CellKey", f.Name)
				continue
			}
			if parts[0] != "" {
				name = parts[0]
			}
			for _, opt := range parts[1:] {
				if opt == "omitempty" {
					t.Errorf("Config field %s is omitempty: zero values would alias in CellKey", f.Name)
				}
			}
		}
		if _, ok := keys[name]; !ok {
			t.Errorf("Config field %s missing from the canonical key JSON: CellKey would not fail closed on it", f.Name)
		}
	}
	// Defaults() must pin the device count explicitly (1, never 0) so
	// pre-multi-device cells and single-device cells share a key only
	// through the schema-versioned domain string, not by accident.
	var devices int
	if err := json.Unmarshal(keys["Devices"], &devices); err != nil || devices != 1 {
		t.Fatalf("canonical key JSON Devices = %s (err %v), want 1", keys["Devices"], err)
	}
}

// TestCellKeyChangesWithDevices: the device count is part of the cache
// identity; spelling the default explicitly is not.
func TestCellKeyChangesWithDevices(t *testing.T) {
	key := func(s denovogpu.CellSpec) string {
		t.Helper()
		k, err := denovogpu.CellKey("test-build", s)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := key(denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "DD"}, Workload: "UTS"})
	two := key(denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "DD", Devices: 2}, Workload: "UTSx2"})
	if base == two {
		t.Error("2-device cell shares its cache key with the single-device cell")
	}
	explicit := key(denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "DD", Devices: 1}, Workload: "UTS"})
	if base != explicit {
		t.Error("explicit Devices:1 changed the cache key; canonicalization must absorb spelled-out defaults")
	}
}

// TestMultiDeviceWorkloadRejectsSmallerMachine: an x2 workload on one
// device used to spin to the cycle horizon on a global barrier waiting
// for thread blocks that never became resident; Run and cell
// validation now refuse it before simulating.
func TestMultiDeviceWorkloadRejectsSmallerMachine(t *testing.T) {
	w, err := denovogpu.WorkloadByName("TB_LGx2")
	if err != nil {
		t.Fatal(err)
	}
	if w.Devices != 2 {
		t.Fatalf("TB_LGx2 sized for %d devices, want 2", w.Devices)
	}
	if _, err := denovogpu.Run(denovogpu.DD(), w); err == nil || !strings.Contains(err.Error(), "sized for 2 devices") {
		t.Fatalf("Run on one device: err %v, want a device-count error", err)
	}
	one := denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "DD"}, Workload: "TB_LGx2"}
	if err := one.Validate(); err == nil || !strings.Contains(err.Error(), "sized for 2 devices") {
		t.Fatalf("Validate on one device: err %v, want a device-count error", err)
	}
	two := denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "DD", Devices: 2}, Workload: "TB_LGx2"}
	if err := two.Validate(); err != nil {
		t.Fatalf("Validate on two devices: %v", err)
	}
}

// TestConfigSpecDevices: the wire spec's device override resolves to
// the suffixed multi-device configuration.
func TestConfigSpecDevices(t *testing.T) {
	cfg, err := (denovogpu.ConfigSpec{Name: "DD", Devices: 2}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name() != "DDx2" || cfg.Devices != 2 {
		t.Fatalf("resolved %q (Devices %d), want DDx2 with 2 devices", cfg.Name(), cfg.Devices)
	}
	raw := denovogpu.DH()
	cfg, err = (denovogpu.ConfigSpec{Raw: &raw, Devices: 3}).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name() != "DHx3" {
		t.Fatalf("raw override resolved %q, want DHx3", cfg.Name())
	}
}

// TestMarshalReportOmitsZeroXDev pins the golden-compatibility rule:
// traffic classes added after the goldens were pinned are omitted when
// zero (single-device reports keep their committed byte layout) and
// emitted when non-zero, and both forms round-trip exactly.
func TestMarshalReportOmitsZeroXDev(t *testing.T) {
	rep := denovogpu.Report{Config: "DD", Workload: "W", Cycles: 10, Events: 20}
	rep.Flits[stats.TrafficRead] = 5
	b, err := denovogpu.MarshalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("XDev")) {
		t.Errorf("zero XDev serialized into the canonical report:\n%s", b)
	}
	roundTrip(t, b)

	rep.Flits[stats.TrafficXDev] = 7
	b, err = denovogpu.MarshalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"XDev": 7`)) {
		t.Errorf("non-zero XDev missing from the canonical report:\n%s", b)
	}
	roundTrip(t, b)
}

func roundTrip(t *testing.T, b []byte) {
	t.Helper()
	back, err := denovogpu.UnmarshalReport(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := denovogpu.MarshalReport(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Errorf("round trip changed canonical bytes:\nfirst:\n%s\nsecond:\n%s", b, b2)
	}
}
