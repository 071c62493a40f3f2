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

// TestCheckVerdictShardIdentity: the merged verdict of a sharded run
// is byte-identical to the serial verdict, for every clean program it
// tries and at two shard counts.
func TestCheckVerdictShardIdentity(t *testing.T) {
	for _, prog := range []string{"MP", "SB+sync", "LB"} {
		spec := CellSpec{Config: ConfigSpec{Name: "DD"}, Program: prog}
		serialBytes, _, err := spec.Run()
		if err != nil {
			t.Fatal(err)
		}
		serial, err := UnmarshalCheckReport(serialBytes)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MergeCheckVerdict([]CheckReport{serial})
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := MarshalCheckVerdict(want)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 8} {
			cells, base, err := SplitCheckCell(spec, shards)
			if err != nil {
				t.Fatal(err)
			}
			reports := []CheckReport{base}
			for _, c := range cells {
				data, _, err := c.Run()
				if err != nil {
					t.Fatalf("%s shard %d: %v", prog, c.Shard.Index, err)
				}
				r, err := UnmarshalCheckReport(data)
				if err != nil {
					t.Fatal(err)
				}
				reports = append(reports, r)
			}
			got, err := MergeCheckVerdict(reports)
			if err != nil {
				t.Fatal(err)
			}
			gotBytes, err := MarshalCheckVerdict(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Errorf("%s: %d-shard verdict diverges from serial:\n--- serial ---\n%s\n--- sharded ---\n%s",
					prog, shards, wantBytes, gotBytes)
			}
		}
	}
}

// TestCheckCellViolation: an injected fault surfaces as a violation in
// both the serial report and the sharded merge, with the same verdict
// invariant.
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
	serial, err := UnmarshalCheckReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Violation == nil || serial.Violation.Invariant != "oracle-conformance" {
		t.Fatalf("fault not caught serially: %+v", serial.Violation)
	}
	if serial.Violation.Outcome == "" || len(serial.Violation.Trace) == 0 {
		t.Errorf("violation missing outcome or trace: %+v", serial.Violation)
	}

	cells, base, err := SplitCheckCell(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	reports := []CheckReport{base}
	for _, c := range cells {
		d, _, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		r, err := UnmarshalCheckReport(d)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
	}
	v, err := MergeCheckVerdict(reports)
	if err != nil {
		t.Fatal(err)
	}
	if v.Violation == nil || v.Violation.Invariant != serial.Violation.Invariant {
		t.Errorf("sharded verdict violation %+v, serial %+v", v.Violation, serial.Violation)
	}
}

func TestMergeCheckVerdictMismatch(t *testing.T) {
	if _, err := MergeCheckVerdict(nil); err == nil {
		t.Error("merging zero reports accepted")
	}
	a := CheckReport{Schema: "denovogpu-checkreport/v2", Program: "MP", Config: "DD", Budget: 100}
	b := a
	b.Config = "DH"
	if _, err := MergeCheckVerdict([]CheckReport{a, b}); err == nil {
		t.Error("merging reports from different cells accepted")
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

func TestCheckVerdictFileName(t *testing.T) {
	if got := CheckVerdictFileName("MP+preload", "DD+RO"); got != "check_MP-preload_DD-RO.json" {
		t.Errorf("file name %q", got)
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
	if _, _, err := SplitCheckCell(CellSpec{Config: ConfigSpec{Name: "DD"}, Workload: "LAVA"}, 2); err == nil {
		t.Error("SplitCheckCell split a simulation cell")
	}
}
