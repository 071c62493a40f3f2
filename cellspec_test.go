package denovogpu_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"denovogpu"
)

// TestCellKeyGolden pins CellKey's bytes for both cell kinds. Every
// warm result cache is addressed by these keys, so a change here
// orphans every cached result: change the hashing only together with
// its domain string. The raw-config row also moves when Config gains a
// field; that is CellKey failing closed, by design.
func TestCellKeyGolden(t *testing.T) {
	raw := denovogpu.DDRO()
	raw.NumCUs = 4
	dd := denovogpu.ConfigSpec{Name: "DD"}
	for _, c := range []struct {
		name string
		spec denovogpu.CellSpec
		want string
	}{
		{"by-name", denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "GD"}, Workload: "LAVA"},
			"52d3d1df40604ad671f6613d773c90ca3e4e6c76190836e818c6af58fc96d9dd"},
		{"raw-config", denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Raw: &raw}, Workload: "SPM_L"},
			"0403b902456634090d59cb9c729603a7605fca01370ac09af3feb11f7ed9426e"},
		{"seeded-bfs", denovogpu.CellSpec{Config: dd, Workload: "BFS", Seed: 9},
			"73d3e8e2659424a72246bff1b9e2f52fc257b75b91c2ccda312f07173c47259e"},
		{"two-device", denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "DD", Devices: 2}, Workload: "UTSx2"},
			"d8a0ed675080ee080678373302de581c5243ba10a39d5603b8de813f008ea8af"},
		{"check-default", denovogpu.CellSpec{Config: dd, Program: "MP"},
			"2de7d3961c4a80e7387886dd7f4231854ee769bb885301682e10ae8cab3fb979"},
		{"check-shard", denovogpu.CellSpec{Config: dd, Program: "MP",
			Shard: &denovogpu.CheckShard{Index: 1, Prefix: []uint32{7}, Sleep: []uint32{3}}},
			"0486e720a340ac3b0f4bd0f81e3528119d4e216776c9ed296a5b094ab65b2871"},
	} {
		got, err := denovogpu.CellKey("v1", c.spec)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCellKeyCanonicalization: a check cell's key is blind to how its
// defaults are spelled and sensitive to everything that changes what
// it explores. (The simulation-cell half of this contract is
// resultcache's TestKeyCanonicalization.)
func TestCellKeyCanonicalization(t *testing.T) {
	key := func(s denovogpu.CellSpec) string {
		t.Helper()
		k, err := denovogpu.CellKey("v1", s)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	dd := denovogpu.ConfigSpec{Name: "DD"}
	base := denovogpu.CellSpec{Config: dd, Program: "MP"}
	k1 := key(base)

	// An explicitly spelled default shares the key with an omitted one.
	spelled := base
	spelled.Budget = 20_000_000 // mcheck.DefaultBudget
	if key(spelled) != k1 {
		t.Error("spelled-out default budget changed the key")
	}

	// Anything that changes what the cell explores changes the key.
	for name, mut := range map[string]denovogpu.CellSpec{
		"program": {Config: dd, Program: "LB"},
		"config":  {Config: denovogpu.ConfigSpec{Name: "DH"}, Program: "MP"},
		"budget":  {Config: dd, Program: "MP", Budget: 1000},
		"shard":   {Config: dd, Program: "MP", Shard: &denovogpu.CheckShard{Index: 1, Prefix: []uint32{7}}},
	} {
		if key(mut) == k1 {
			t.Errorf("changing %s did not change the key", name)
		}
	}
	if k, _ := denovogpu.CellKey("v2", base); k == k1 {
		t.Error("code version not folded into the key")
	}

	// Unresolvable specs are rejected.
	for name, bad := range map[string]denovogpu.CellSpec{
		"program":  {Config: dd, Program: "NOPE"},
		"config":   {Config: denovogpu.ConfigSpec{Name: "NOPE"}, Program: "MP"},
		"workload": {Config: dd, Workload: "NOPE"},
	} {
		if _, err := denovogpu.CellKey("v1", bad); err == nil {
			t.Errorf("bad %s accepted", name)
		}
	}
}

// TestCellSpecKinds: Validate accepts exactly one kind per cell and
// rejects fields that belong to the other kind.
func TestCellSpecKinds(t *testing.T) {
	dd := denovogpu.ConfigSpec{Name: "DD"}
	for name, good := range map[string]denovogpu.CellSpec{
		"simulation": {Config: dd, Workload: "LAVA"},
		"seeded":     {Config: dd, Workload: "PR", Seed: 4},
		"check":      {Config: dd, Program: "MP", Budget: 1000},
		"shard":      {Config: dd, Program: "MP", Shard: &denovogpu.CheckShard{Index: 2}},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for name, bad := range map[string]denovogpu.CellSpec{
		"both":              {Config: dd, Workload: "LAVA", Program: "MP"},
		"neither":           {Config: dd},
		"seed on check":     {Config: dd, Program: "MP", Seed: 1},
		"budget on sim":     {Config: dd, Workload: "LAVA", Budget: 10},
		"shard on sim":      {Config: dd, Workload: "LAVA", Shard: &denovogpu.CheckShard{}},
		"seeded fixed":      {Config: dd, Workload: "LAVA", Seed: 3},
		"no config":         {Workload: "LAVA"},
		"no config (check)": {Program: "MP"},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCellSpecRejectsUnbuildableShapes: a configuration machine.New
// would panic on is a validation (and keying) error, so it never
// reaches a worker.
func TestCellSpecRejectsUnbuildableShapes(t *testing.T) {
	raw := func(cus int) denovogpu.ConfigSpec {
		c := denovogpu.DD()
		c.NumCUs = cus
		return denovogpu.ConfigSpec{Raw: &c}
	}
	for name, bad := range map[string]denovogpu.CellSpec{
		// Protocol 2 was the retired MESI extension.
		"protocol 2": {Config: denovogpu.ConfigSpec{Raw: &denovogpu.Config{Protocol: 2}}, Workload: "LAVA"},
		"100 CUs":    {Config: raw(100), Workload: "LAVA"},
		"-3 CUs":     {Config: raw(-3), Workload: "LAVA"},
		"-1 devices": {Config: denovogpu.ConfigSpec{Name: "DD", Devices: -1}, Workload: "LAVA"},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := denovogpu.CellKey("v1", bad); err == nil {
			t.Errorf("%s: keyed", name)
		}
	}
}

func TestCellSpecLabel(t *testing.T) {
	for _, c := range []struct {
		spec             denovogpu.CellSpec
		workload, config string
	}{
		{denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "GD"}, Workload: "LAVA"}, "LAVA", "GD"},
		{denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "DD", Devices: 2}, Workload: "UTSx2"}, "UTSx2", "DDx2"},
		{denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "DD+RO"}, Program: "MP"}, "check:MP", "DD+RO"},
		{denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "DH"}, Program: "MP", Shard: &denovogpu.CheckShard{Index: 3}}, "check:MP#3", "DH"},
		{denovogpu.CellSpec{Program: "MP"}, "check:MP", ""},
	} {
		w, cfg := c.spec.Label()
		if w != c.workload || cfg != c.config {
			t.Errorf("%+v: Label() = (%q, %q), want (%q, %q)", c.spec, w, cfg, c.workload, c.config)
		}
	}
}

// FuzzCellSpec is the wire contract for cells: decoding arbitrary JSON
// never panics, and a cell that validates re-encodes to a fixed point
// with an unchanged cache key.
func FuzzCellSpec(f *testing.F) {
	dd := denovogpu.ConfigSpec{Name: "DD"}
	seeds := append(denovogpu.PinnedCells(),
		denovogpu.CellSpec{Config: dd, Workload: "BFS", Seed: 9},
		denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "DD", Devices: 2}, Workload: "UTSx2"},
		denovogpu.CellSpec{Config: dd, Program: "MP"},
		denovogpu.CellSpec{Config: dd, Program: "SB+sync", Budget: 5000},
		denovogpu.CellSpec{Config: dd, Program: "MP", Shard: &denovogpu.CheckShard{Index: 1, Prefix: []uint32{7}, Sleep: []uint32{3}}},
		denovogpu.CellSpec{Config: dd, Workload: "LAVA", Program: "MP"},
		denovogpu.CellSpec{Config: dd, Program: "MP", Seed: 2},
		denovogpu.CellSpec{Config: dd, Workload: "LAVA", Shard: &denovogpu.CheckShard{}},
	)
	raw := denovogpu.DDRO()
	raw.NumCUs = 4
	seeds = append(seeds, denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Raw: &raw}, Workload: "SPM_L"})
	for _, s := range seeds {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"config":{"name":"DD"},"program":"MP","shard":{"index":0,"prefix":[]}}`))
	f.Add([]byte(`{"config":{"name":"GD"},"workload":"LAVA","check":{"program":"MP"}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s denovogpu.CellSpec
		if json.Unmarshal(data, &s) != nil || s.Validate() != nil {
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("valid cell does not encode: %v", err)
		}
		var back denovogpu.CellSpec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("encoded cell does not decode: %v\n%s", err, enc)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", enc, again)
		}
		k1, err1 := denovogpu.CellKey("v1", s)
		k2, err2 := denovogpu.CellKey("v1", back)
		if err1 != nil || err2 != nil || k1 != k2 {
			t.Fatalf("key changed across the round trip: %s (%v) vs %s (%v)", k1, err1, k2, err2)
		}
	})
}

// FuzzUnmarshalReport: whatever UnmarshalReport accepts, MarshalReport
// turns into bytes that decode and re-encode to themselves. The seeds
// are the committed golden reports, each of which must also reproduce
// its own bytes exactly.
func FuzzUnmarshalReport(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("internal", "machine", "testdata", "golden", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(goldens) != len(denovogpu.PinnedCells()) {
		f.Fatalf("found %d golden reports, want %d", len(goldens), len(denovogpu.PinnedCells()))
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		rep, err := denovogpu.UnmarshalReport(data)
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		if enc, err := denovogpu.MarshalReport(rep); err != nil || !bytes.Equal(enc, data) {
			f.Fatalf("%s does not round-trip exactly (%v)", path, err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"config":"GD","workload":"X","energy_pj":{"flux-capacitor":1}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := denovogpu.UnmarshalReport(data)
		if err != nil {
			return
		}
		enc, err := denovogpu.MarshalReport(rep)
		if err != nil {
			t.Fatalf("accepted report does not encode: %v", err)
		}
		back, err := denovogpu.UnmarshalReport(enc)
		if err != nil {
			t.Fatalf("encoded report does not decode: %v\n%s", err, enc)
		}
		again, err := denovogpu.MarshalReport(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not a fixed point:\n%s\n%s", enc, again)
		}
	})
}
