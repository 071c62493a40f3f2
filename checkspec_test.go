package denovogpu

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunCheckCellRoundTrip(t *testing.T) {
	spec := CellSpec{Config: ConfigSpec{Name: "DD"}, Program: "MP"}
	data, states, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	r, err := UnmarshalCheckReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.Program != "MP" || r.Config != "DD" {
		t.Errorf("report identity: %+v", r)
	}
	if uint64(r.States) != states || states == 0 {
		t.Errorf("states: report %d, returned %d", r.States, states)
	}
	if len(r.Outcomes) == 0 || r.Violation != nil {
		t.Errorf("MP under DD should check clean with outcomes: %+v", r)
	}
	again, err := MarshalCheckReport(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Error("report does not round-trip canonically")
	}
	// A rerun is byte-identical (exploration determinism on the wire).
	data2, _, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data2, data) {
		t.Error("rerun produced different report bytes")
	}
}

// TestCheckCellViolation: an injected fault surfaces as a violation in
// the cell's report, with its outcome and trace.
func TestCheckCellViolation(t *testing.T) {
	cfg, err := ConfigByName("DD")
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultDisableAcquireInval = true
	spec := CellSpec{Config: ConfigSpec{Raw: &cfg}, Program: "MP+preload"}

	data, _, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	r, err := UnmarshalCheckReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.Violation == nil || r.Violation.Invariant != "oracle-conformance" {
		t.Fatalf("fault not caught: %+v", r.Violation)
	}
	if r.Violation.Outcome == "" || len(r.Violation.Trace) == 0 {
		t.Errorf("violation missing outcome or trace: %+v", r.Violation)
	}
}

func TestUnmarshalCheckReportSchema(t *testing.T) {
	if _, err := UnmarshalCheckReport([]byte(`{"schema":"denovogpu-bench/v1"}`)); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("foreign schema accepted: %v", err)
	}
	if _, err := UnmarshalCheckReport([]byte("not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestCheckConfigSpecs(t *testing.T) {
	specs := CheckConfigSpecs()
	if len(specs) == 0 {
		t.Fatal("empty config set")
	}
	sawRaw := false
	for _, s := range specs {
		cfg, err := s.Resolve()
		if err != nil {
			t.Fatalf("config spec %+v: %v", s, err)
		}
		if s.Raw != nil {
			sawRaw = true
			if cfg.Name() == "" {
				t.Errorf("raw config has no name")
			}
		}
	}
	if !sawRaw {
		t.Error("expected the lazy ablation to need a raw spec")
	}
}

func TestCheckCellSpecRejectsSimulation(t *testing.T) {
	s := CellSpec{Config: ConfigSpec{Name: "DD"}, Program: "MP"}
	if _, err := s.Cell(); err == nil {
		t.Error("Cell() resolved a check cell")
	}
}
