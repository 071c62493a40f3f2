package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"denovogpu"
	"denovogpu/internal/cli"
)

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// stubRunCell replaces runCell for the test with fabricated results:
// cycles and events derived from the cell's position in cells(), a
// fixed 100000 allocations, then edit (if non-nil) applied to the
// cell's result.
func stubRunCell(t *testing.T, edit func(i int, r *result) error) {
	t.Helper()
	index := make(map[denovogpu.CellSpec]int)
	for i, spec := range cells() {
		index[spec] = i
	}
	orig := runCell
	runCell = func(spec denovogpu.CellSpec) (result, error) {
		i, ok := index[spec]
		if !ok {
			t.Fatalf("runCell called with a cell outside cells(): %+v", spec)
		}
		r := result{Cycles: uint64(1000 + i), Events: uint64(500 + i), Allocs: 100000}
		if edit == nil {
			return r, nil
		}
		return r, edit(i, &r)
	}
	t.Cleanup(func() { runCell = orig })
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"},
		{"positional"},
		{"-quick"},
		{"-j", "1"},
		{"-record-baseline"},
		{"-tolerance", "0.1"},
	} {
		if code, _, _ := runCmd(t, args...); code != cli.ExitUsage {
			t.Errorf("%q: exit %d, want %d", args, code, cli.ExitUsage)
		}
	}
}

func TestCheckGate(t *testing.T) {
	stubRunCell(t, nil)
	out := filepath.Join(t.TempDir(), "bench.json")
	if code, stdout, stderr := runCmd(t, "-o", out); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	f, err := load(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Results) != len(cells()) {
		t.Fatalf("wrote %d cells, want %d", len(f.Results), len(cells()))
	}
	if code, _, stderr := runCmd(t, "-o", out, "-check"); code != 0 {
		t.Fatalf("self-check exit %d, stderr: %s", code, stderr)
	}

	last := len(cells()) - 1
	for _, tc := range []struct {
		name string
		edit func(r *result)
		pass bool
		want string
	}{
		{"cycle drift", func(r *result) { r.Cycles++ }, false, "cycles"},
		{"event drift", func(r *result) { r.Events-- }, false, "events"},
		{"allocs at limit", func(r *result) { r.Allocs = 100000*11/10 + allocCellSlack }, true, ""},
		{"allocs over limit", func(r *result) { r.Allocs = 100000*11/10 + allocCellSlack + 1 }, false, "allocations"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stubRunCell(t, func(i int, r *result) error {
				if i == last {
					tc.edit(r)
				}
				return nil
			})
			code, _, stderr := runCmd(t, "-o", out, "-check")
			if tc.pass {
				if code != 0 {
					t.Fatalf("exit %d, want 0\nstderr: %s", code, stderr)
				}
				return
			}
			if code != cli.ExitFailure {
				t.Fatalf("exit %d, want %d\nstderr: %s", code, cli.ExitFailure, stderr)
			}
			if !strings.Contains(stderr, "UTSx2 under GDx2") || !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr does not name the drifted cell and %q:\n%s", tc.want, stderr)
			}
		})
	}

	t.Run("cell missing from file", func(t *testing.T) {
		short := filepath.Join(t.TempDir(), "short.json")
		g := *f
		g.Results = g.Results[1:]
		if err := save(short, &g); err != nil {
			t.Fatal(err)
		}
		code, _, stderr := runCmd(t, "-o", short, "-check")
		if code != cli.ExitFailure || !strings.Contains(stderr, "BP under GD is missing") {
			t.Fatalf("exit %d, want %d naming BP under GD\nstderr: %s", code, cli.ExitFailure, stderr)
		}
	})
}

func TestCellFailureExitCode(t *testing.T) {
	stubRunCell(t, func(i int, r *result) error {
		if i == 2 {
			return errors.New("injected cell fault")
		}
		return nil
	})
	want := cells()[2]
	wantWorkload, wantConfig := want.Label()
	dir := t.TempDir()
	committed := filepath.Join(dir, "committed.json")
	if err := save(committed, &benchFile{Schema: schema}); err != nil {
		t.Fatal(err)
	}

	for _, args := range [][]string{{"-o", filepath.Join(dir, "bench.json")}, {"-o", committed, "-check"}} {
		code, _, stderr := runCmd(t, args...)
		if code != cli.ExitCellFailure {
			t.Fatalf("%q: exit %d, want %d\nstderr: %s", args, code, cli.ExitCellFailure, stderr)
		}
		var failure cli.CellFailure
		found := false
		for _, l := range strings.Split(stderr, "\n") {
			if strings.HasPrefix(l, "{") && json.Unmarshal([]byte(l), &failure) == nil {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%q: no machine-readable JSON line on stderr:\n%s", args, stderr)
		}
		if failure.Error != "matrix_cell_failure" || failure.Workload != wantWorkload ||
			failure.Config != wantConfig || failure.Cell != 2 ||
			!strings.Contains(failure.Message, "injected cell fault") {
			t.Fatalf("%q: machine-readable line %+v, want cell 2 = %s under %s", args, failure, wantWorkload, wantConfig)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "bench.json")); !os.IsNotExist(err) {
		t.Error("bench wrote an output file despite the failed cell")
	}

	// -check without a committed file is environmental, not a cell
	// failure.
	stubRunCell(t, nil)
	if code, _, _ := runCmd(t, "-o", filepath.Join(dir, "missing.json"), "-check"); code != cli.ExitFailure {
		t.Errorf("-check with no committed file: exit %d, want %d", code, cli.ExitFailure)
	}
}

// TestCommittedFileCoversCells pins the committed BENCH_sim.json to the
// cell list, so editing cells() without regenerating the file fails
// here rather than only in the full -check run.
func TestCommittedFileCoversCells(t *testing.T) {
	f, err := load(filepath.Join("..", "..", "BENCH_sim.json"))
	if err != nil {
		t.Fatal(err)
	}
	list := cells()
	if len(f.Results) != len(list) {
		t.Fatalf("committed file has %d cells, cells() has %d: regenerate with go run ./cmd/bench", len(f.Results), len(list))
	}
	for i, spec := range list {
		workload, config := spec.Label()
		r := f.Results[i]
		if r.Workload != workload || r.Config != config {
			t.Errorf("cell %d: file has %s under %s, cells() has %s under %s", i, r.Workload, r.Config, workload, config)
		}
		if r.Events == 0 || r.Allocs == 0 {
			t.Errorf("cell %d (%s under %s): events %d, allocs %d, want both non-zero", i, workload, config, r.Events, r.Allocs)
		}
	}
}
