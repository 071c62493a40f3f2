package denovogpu_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"denovogpu"
)

func TestMatrixSpecCrossProduct(t *testing.T) {
	spec := denovogpu.MatrixSpec{
		Configs:   []denovogpu.ConfigSpec{{Name: "GD"}, {Name: "DD"}},
		Workloads: []string{"LAVA", "BFS"},
		Seeds:     []uint64{0, 7},
		Cells:     []denovogpu.CellSpec{{Config: denovogpu.ConfigSpec{Name: "DH"}, Workload: "UTS"}},
	}
	cells := spec.CellSpecs()
	if len(cells) != 2*2*2+1 {
		t.Fatalf("got %d cells, want 9", len(cells))
	}
	// Config-major, then workload, then seed; explicit cells appended.
	if cells[0].Config.Name != "GD" || cells[0].Workload != "LAVA" || cells[0].Seed != 0 {
		t.Errorf("cell 0 = %+v", cells[0])
	}
	if cells[1].Seed != 7 {
		t.Errorf("cell 1 = %+v, want seed 7", cells[1])
	}
	if cells[2].Workload != "BFS" {
		t.Errorf("cell 2 = %+v, want BFS", cells[2])
	}
	if last := cells[len(cells)-1]; last.Workload != "UTS" || last.Config.Name != "DH" {
		t.Errorf("explicit cell = %+v", last)
	}
}

func TestCellSpecResolution(t *testing.T) {
	// Seeded graph cell resolves to a re-parameterized generator.
	cell, err := (denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "DD"}, Workload: "BFS", Seed: 9}).Cell()
	if err != nil {
		t.Fatal(err)
	}
	if cell.Workload.Name != "BFS" || !strings.Contains(cell.Workload.Input, "seed 9") {
		t.Errorf("seeded BFS cell input = %q, want the seed in it", cell.Workload.Input)
	}
	// Seeding a fixed Table 4 benchmark is an error.
	if _, err := (denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "GD"}, Workload: "LAVA", Seed: 3}).Cell(); err == nil {
		t.Error("seeded LAVA resolved, want error")
	}
	// A raw config spec round-trips through JSON.
	cfg := denovogpu.DDRO()
	cfg.NumCUs = 4
	data, err := json.Marshal(denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Raw: &cfg}, Workload: "SPM_L"})
	if err != nil {
		t.Fatal(err)
	}
	var back denovogpu.CellSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Cell()
	if err != nil {
		t.Fatal(err)
	}
	if got.Config.NumCUs != 4 || !got.Config.ReadOnlyOpt {
		t.Errorf("raw config round trip lost fields: %+v", got.Config)
	}
	// Both name and raw set, neither set: errors.
	if _, err := (denovogpu.ConfigSpec{Name: "GD", Raw: &cfg}).Resolve(); err == nil {
		t.Error("ambiguous config spec resolved, want error")
	}
	if _, err := (denovogpu.ConfigSpec{}).Resolve(); err == nil {
		t.Error("empty config spec resolved, want error")
	}
}

func TestPinnedCellsShape(t *testing.T) {
	cells := denovogpu.PinnedCells()
	if len(cells) != 44 {
		t.Fatalf("pinned matrix has %d cells, want 44", len(cells))
	}
	seen := make(map[string]bool)
	for _, c := range cells {
		if _, err := c.Cell(); err != nil {
			t.Errorf("pinned cell %+v does not resolve: %v", c, err)
		}
		name := denovogpu.ReportFileName(c.Workload, c.Config.Name)
		if seen[name] {
			t.Errorf("duplicate pinned cell %s", name)
		}
		seen[name] = true
		if strings.Contains(name, "+") {
			t.Errorf("report file name %q contains '+'", name)
		}
	}
}

func TestUnmarshalReportRejectsUnknownDimensions(t *testing.T) {
	if _, err := denovogpu.UnmarshalReport([]byte(`{"config":"GD","workload":"X","energy_pj":{"flux-capacitor":1}}`)); err == nil {
		t.Error("unknown energy component parsed, want error")
	}
	if _, err := denovogpu.UnmarshalReport([]byte(`{"config":"GD","workload":"X","flits":{"warp-drive":1}}`)); err == nil {
		t.Error("unknown traffic class parsed, want error")
	}
	if _, err := denovogpu.UnmarshalReport([]byte(`not json`)); err == nil {
		t.Error("garbage parsed, want error")
	}
}

// TestDecodeMatrixSpec: the submit decoder reads every field of the
// wire spec, is strict inside cells too, and refuses a list at the
// first entry past MaxMatrixCells.
func TestDecodeMatrixSpec(t *testing.T) {
	cells := func(n int) string {
		return `{"cells":[` + strings.TrimSuffix(strings.Repeat(`{},`, n), ",") + `]}`
	}
	for _, c := range []struct {
		name, body string
		cells      int // -1: refused
	}{
		{"bound", cells(denovogpu.MaxMatrixCells), denovogpu.MaxMatrixCells},
		{"past bound", cells(denovogpu.MaxMatrixCells + 1), -1},
		{"null", `{"cells":null,"keep_going":true}`, 0},
		{"repeated key", `{"cells":[{},{}],"Cells":[{"workload":"LAVA"}]}`, 1},
		{"not an array", `{"cells":{}}`, -1},
		{"unknown cell field", `{"cells":[{"bogus":1}]}`, -1},
		{"unknown config field", `{"cells":[{"config":{"config":{"SyncBackoff":true}}}]}`, -1},
		{"retired GenericL1", `{"cells":[{"config":{"config":{"Protocol":1,"GenericL1":true}},"workload":"LAVA"}]}`, -1},
		{"configs past bound", `{"configs":[` + strings.TrimSuffix(strings.Repeat(`{},`, denovogpu.MaxMatrixCells+1), ",") + `],"cells":[{}]}`, -1},
		{"seeds past bound", `{"seeds":[` + strings.TrimSuffix(strings.Repeat(`0,`, denovogpu.MaxMatrixCells+1), ",") + `],"cells":[{}]}`, -1},
	} {
		spec, err := denovogpu.DecodeMatrixSpec(strings.NewReader(c.body))
		switch {
		case c.cells < 0 && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.cells >= 0 && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.cells >= 0 && len(spec.Cells) != c.cells:
			t.Errorf("%s: %d cells, want %d", c.name, len(spec.Cells), c.cells)
		}
	}
	spec, err := denovogpu.DecodeMatrixSpec(strings.NewReader(`{"cells":[{"workload":"LAVA"}],"workloads":["BFS"],"keep_going":true}`))
	if err != nil || spec.Cells[0].Workload != "LAVA" || spec.Workloads[0] != "BFS" || !spec.KeepGoing {
		t.Errorf("decoded %+v, %v", spec, err)
	}
}

// FuzzMatrixSpec is the wire contract for whole sweeps: bytes decoded
// the way the sweep service decodes a submit either fail to decode,
// count past MaxMatrixCells, or name a spec that expands to exactly the
// counted cells and re-encodes to a fixed point.
func FuzzMatrixSpec(f *testing.F) {
	dd := denovogpu.ConfigSpec{Name: "DD"}
	for _, s := range []denovogpu.MatrixSpec{
		{Cells: denovogpu.PinnedCells()},
		{Configs: []denovogpu.ConfigSpec{{Name: "DD", Devices: 2}, {Name: "GD", Devices: 2}}, Workloads: []string{"UTSx2", "TB_LGx2"}, KeepGoing: true},
		{Configs: []denovogpu.ConfigSpec{dd}, Workloads: []string{"BFS"}, Seeds: []uint64{0, 9}, Cells: []denovogpu.CellSpec{{Config: dd, Program: "MP"}}},
	} {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// 2,237 bytes naming 100,000 cells.
	list := func(item string, n int) string { return strings.TrimSuffix(strings.Repeat(item+",", n), ",") }
	f.Add([]byte(`{"configs":[` + list(`{"name":"DD"}`, 10) + `],"workloads":[` + list(`"BFS"`, 10) +
		`],"seeds":[` + list("0", 1000) + `]}`))

	decode := func(data []byte) (denovogpu.MatrixSpec, error) {
		return denovogpu.DecodeMatrixSpec(bytes.NewReader(data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decode(data)
		if err != nil {
			return
		}
		n, ok := s.CellCount()
		if !ok {
			return
		}
		if n > denovogpu.MaxMatrixCells {
			t.Fatalf("CellCount accepted %d cells, past the %d bound", n, denovogpu.MaxMatrixCells)
		}
		if got := len(s.CellSpecs()); got != n {
			t.Fatalf("spec expands to %d cells, CellCount said %d", got, n)
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		back, err := decode(enc)
		if err != nil {
			t.Fatalf("encoded spec does not decode: %v\n%s", err, enc)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", enc, again)
		}
	})
}
