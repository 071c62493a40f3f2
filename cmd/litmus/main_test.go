package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
)

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestCatalogMode(t *testing.T) {
	code, out, errb := runCmd(t, "-catalog", "-schedules", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{"MP", "IRIW", "GD", "DH", "all outcomes permitted by the oracle"} {
		if !strings.Contains(out, want) {
			t.Fatalf("catalog output missing %q:\n%s", want, out)
		}
	}
	// The scoped MP variant must show its weak behavior somewhere (the
	// HRF configs are allowed to — and do — produce it).
	if !strings.Contains(out, "weak") {
		t.Fatalf("catalog observed no weak outcomes at all:\n%s", out)
	}
}

func TestFuzzMode(t *testing.T) {
	code, out, errb := runCmd(t, "-fuzz", "5", "-seed", "3", "-schedules", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "no oracle violations") {
		t.Fatalf("fuzz output missing verdict:\n%s", out)
	}
}

// TestReplayMode serializes a real counterexample (found by injecting
// the acquire-invalidation fault) and checks that -replay reproduces
// the violation, then that the clean configuration replays green.
func TestReplayMode(t *testing.T) {
	cfg := machine.GD()
	cfg.FaultDisableAcquireInval = true
	var v *litmus.Violation
	for _, e := range litmus.Catalog() {
		var err error
		v, err = litmus.Check([]machine.Config{cfg}, e.Program, litmus.Schedules(e.Program, 7, 20260805))
		if err != nil {
			t.Fatal(err)
		}
		if v != nil {
			break
		}
	}
	if v == nil {
		t.Fatal("fault injection produced no violation to replay")
	}
	c := &litmus.Case{Config: "GD", Fault: true, Program: v.Program, Schedule: v.Schedule, Observed: &v.Observed}
	js, err := c.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "case.json")
	if err := os.WriteFile(path, js, 0o644); err != nil {
		t.Fatal(err)
	}

	code, out, errb := runCmd(t, "-replay", path)
	if code != 1 {
		t.Fatalf("faulty replay: exit %d, want 1 (stderr: %s)", code, errb)
	}
	if !strings.Contains(out, "VIOLATION") {
		t.Fatalf("faulty replay did not reproduce the violation:\n%s", out)
	}

	// Same case without the fault: the protocol is correct, so the
	// observed outcome must fall inside the oracle's permitted set.
	c.Fault = false
	js, _ = c.MarshalIndent()
	if err := os.WriteFile(path, js, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errb = runCmd(t, "-replay", path)
	if code != 0 {
		t.Fatalf("clean replay: exit %d (stderr: %s)\n%s", code, errb, out)
	}
	if !strings.Contains(out, "permitted by the") {
		t.Fatalf("clean replay verdict missing:\n%s", out)
	}
}

// smallCatalog swaps in a two-shape catalog for the duration of a
// test so `check` runs in milliseconds rather than minutes.
func smallCatalog(t *testing.T, names ...string) {
	t.Helper()
	full := Catalog
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var small []litmus.Entry
	for _, e := range litmus.Catalog() {
		if want[e.Program.Name] {
			small = append(small, e)
		}
	}
	if len(small) != len(names) {
		t.Fatalf("catalog subset %v resolved to %d entries", names, len(small))
	}
	Catalog = func() []litmus.Entry { return small }
	t.Cleanup(func() { Catalog = full })
}

func TestCheckModeClean(t *testing.T) {
	smallCatalog(t, "MP", "CoWW")
	code, out, errb := runCmd(t, "check")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\n%s", code, errb, out)
	}
	if !strings.Contains(out, "no invariant or oracle violations") {
		t.Fatalf("check verdict missing:\n%s", out)
	}
}

// TestCheckModeFault drives the whole counterexample pipeline: fault
// injection makes MP+preload's stale read reachable, the checker
// reports it, the simulator reproduces and shrinks it, and artifacts
// land in -out.
func TestCheckModeFault(t *testing.T) {
	smallCatalog(t, "MP+preload")
	dir := t.TempDir()
	code, out, errb := runCmd(t, "check", "-fault", "-out", dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)\n%s", code, errb, out)
	}
	for _, want := range []string{"oracle-conformance", "trace", `"Config"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("check output missing %q:\n%s", want, out)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var haveCase, haveTrace bool
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".case.json") {
			haveCase = true
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := litmus.ParseCase(data); err != nil {
				t.Fatalf("artifact case does not parse: %v", err)
			}
		}
		if strings.HasSuffix(e.Name(), ".trace.txt") {
			haveTrace = true
		}
	}
	if !haveCase || !haveTrace {
		t.Fatalf("artifacts missing (case=%v trace=%v): %v", haveCase, haveTrace, ents)
	}
}

// TestCheckDeterminism is the -j guarantee: a parallel run reports the
// exact same lowest-index violation (same program, same configuration,
// same trace) as a serial one.
func TestCheckDeterminism(t *testing.T) {
	smallCatalog(t, "MP", "MP+preload", "CoRR")
	code1, out1, _ := runCmd(t, "check", "-fault", "-j", "1")
	code8, out8, _ := runCmd(t, "check", "-fault", "-j", "8")
	if code1 != 1 || code8 != 1 {
		t.Fatalf("exits %d/%d, want 1/1", code1, code8)
	}
	if out1 != out8 {
		t.Fatalf("-j 1 and -j 8 reports differ:\n--- j=1 ---\n%s\n--- j=8 ---\n%s", out1, out8)
	}
}

func TestCheckGenPrograms(t *testing.T) {
	Catalog = func() []litmus.Entry { return nil }
	t.Cleanup(func() { Catalog = litmus.Catalog })
	// A small budget: the test exercises the -gen path, not deep
	// exploration; generated programs that exhaust it are skipped, which
	// the summary line still counts as checked.
	code, out, errb := runCmd(t, "check", "-gen", "3", "-seed", "7", "-j", "2", "-budget", "200000")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\n%s", code, errb, out)
	}
	if !strings.Contains(out, "model-checked 3 programs") {
		t.Fatalf("generated programs not checked:\n%s", out)
	}
}

func TestErrorPaths(t *testing.T) {
	if code, _, _ := runCmd(t); code != 2 {
		t.Fatalf("no mode: exit %d, want 2", code)
	}
	if code, _, _ := runCmd(t, "-nope"); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if code, _, _ := runCmd(t, "check", "-nope"); code != 2 {
		t.Fatalf("check bad flag: exit %d, want 2", code)
	}
	if code, _, _ := runCmd(t, "check", "stray"); code != 2 {
		t.Fatalf("check stray arg: exit %d, want 2", code)
	}
	if code, _, errb := runCmd(t, "-replay", "/nonexistent/case.json"); code != 1 || !strings.Contains(errb, "no such file") {
		t.Fatalf("missing file: exit %d, stderr: %s", code, errb)
	}
}

// TestCheckAllocOnlyWhenAlone pins when a cell's alloc_mb is reported:
// the heap counter is process-wide, so only a cell that ran alone (-j 1,
// no -shards) gets the figure; beside other cells or shards it is
// omitted from the -json summary and shown as "-" in the -stats table.
func TestCheckAllocOnlyWhenAlone(t *testing.T) {
	smallCatalog(t, "MP", "CoWW")
	for _, tc := range []struct {
		args      []string
		wantAlloc bool
	}{
		{[]string{"-j", "1"}, true},
		{[]string{"-j", "2"}, false},
		{[]string{"-j", "1", "-shards", "2"}, false},
	} {
		path := filepath.Join(t.TempDir(), "check.json")
		args := append([]string{"check", "-stats", "-json", path}, tc.args...)
		code, out, errb := runCmd(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s\n%s", tc.args, code, errb, out)
		}
		js, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var sum checkSummary
		if err := json.Unmarshal(js, &sum); err != nil {
			t.Fatal(err)
		}
		if len(sum.Cells) == 0 {
			t.Fatalf("%v: no cells in the summary", tc.args)
		}
		if got := strings.Count(string(js), `"alloc_mb"`); tc.wantAlloc && got != len(sum.Cells) || !tc.wantAlloc && got != 0 {
			t.Fatalf("%v: alloc_mb on %d of %d cells, want alloc %v:\n%s", tc.args, got, len(sum.Cells), tc.wantAlloc, js)
		}
		for _, c := range sum.Cells {
			if tc.wantAlloc && c.AllocMB <= 0 {
				t.Fatalf("%v: %s/%s alloc_mb %v, want > 0", tc.args, c.Config, c.Program, c.AllocMB)
			}
		}
		// The -stats table's last column is the allocation.
		rows := 0
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) != 7 || f[0] == "CONFIG" {
				continue
			}
			rows++
			if (f[6] == "-") == tc.wantAlloc {
				t.Fatalf("%v: stats row %q, want alloc %v", tc.args, line, tc.wantAlloc)
			}
		}
		if rows != len(sum.Cells) {
			t.Fatalf("%v: %d stats rows for %d cells:\n%s", tc.args, rows, len(sum.Cells), out)
		}
	}
}
