// Golden-report regression harness.
//
// Every (workload, config) pair in a fast subset of the paper's matrix
// has its full Report — cycles, fired events, energy by component,
// flit crossings by class, and every diagnostic counter — pinned as a
// JSON file under testdata/golden/. The simulation is bit-for-bit
// deterministic, so the comparison is byte-identical: any change to
// protocol behaviour, timing, event ordering, or accounting shows up
// as a golden diff. Performance work on the hot paths (the event
// engine, the L2 banks, the NoC, the store buffers) must leave every
// golden byte untouched.
//
// The pinned cell list and the canonical serialization are exported
// from the api package (denovogpu.PinnedCells, denovogpu.MarshalReport)
// because the sweep service reuses both: a distributed or cached sweep
// of the pinned matrix must reproduce these exact files (the sweepd-e2e
// CI job and internal/sweepd's golden test diff against them).
//
// Regenerate after an intentional model change with:
//
//	go test ./internal/machine -run TestGoldenReports -update
//
// and review the diff like any other code change.
package machine_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"denovogpu"
)

var update = flag.Bool("update", false, "rewrite testdata/golden files with current simulation output")

func goldenPath(workload, config string) string {
	return filepath.Join("testdata", "golden", denovogpu.ReportFileName(workload, config))
}

// goldenPair is the package-local (workload, config) shorthand the
// determinism, observability and multi-device suites share.
type goldenPair struct {
	workload string
	config   string
}

// mustCanonical serializes a report with the canonical encoder; byte
// equality of two canonical serializations is the package's definition
// of "identical Report".
func mustCanonical(t *testing.T, rep denovogpu.Report) []byte {
	t.Helper()
	b, err := denovogpu.MarshalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenReports runs the whole pinned matrix through the parallel
// orchestrator (api.RunMatrix at the default worker count) and compares
// every cell byte-for-byte against its golden file. The goldens were
// recorded from serial runs, so a pass here also proves the runner's
// determinism contract: parallel execution leaves every report
// byte-identical.
func TestGoldenReports(t *testing.T) {
	specs := denovogpu.PinnedCells()
	cells := make([]denovogpu.MatrixCell, len(specs))
	for i, s := range specs {
		cell, err := s.Cell()
		if err != nil {
			t.Fatal(err)
		}
		cells[i] = cell
	}
	results, err := denovogpu.RunMatrix(cells, denovogpu.MatrixOptions{KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		s, res := s, results[i]
		t.Run(s.Workload+"/"+s.Config.Name, func(t *testing.T) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			got := mustCanonical(t, res.Report)
			path := goldenPath(s.Workload, s.Config.Name)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report for %s under %s deviates from golden %s;\nrerun with -update and review the diff if the change is intentional.\ngot:\n%s\nwant:\n%s",
					s.Workload, s.Config.Name, path, got, want)
			}
		})
	}
}

// TestGoldenNoStrays fails when testdata/golden contains files no
// current (workload, config) pair produces — stale goldens silently
// stop guarding anything.
func TestGoldenNoStrays(t *testing.T) {
	expected := make(map[string]bool)
	for _, s := range denovogpu.PinnedCells() {
		expected[denovogpu.ReportFileName(s.Workload, s.Config.Name)] = true
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Skipf("no golden directory yet: %v", err)
	}
	for _, e := range entries {
		if !expected[e.Name()] {
			t.Errorf("stray golden file %s (not produced by any pinned pair)", e.Name())
		}
	}
}

// TestMarshalReportRoundTrip pins the canonical encoding's
// invertibility on a real report: UnmarshalReport(MarshalReport(r))
// re-serializes to the identical bytes. The sweep service's remote
// mode depends on this — a report that survives the wire and parses
// back must still diff clean against its golden.
func TestMarshalReportRoundTrip(t *testing.T) {
	rep, err := denovogpu.RunByName(denovogpu.DD(), "SPM_L")
	if err != nil {
		t.Fatal(err)
	}
	b, err := denovogpu.MarshalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	back, err := denovogpu.UnmarshalReport(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := denovogpu.MarshalReport(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Errorf("round trip changed the canonical bytes:\nfirst:\n%s\nsecond:\n%s", b, b2)
	}
	if back.Cycles != rep.Cycles || back.Events != rep.Events || back.TotalFlits() != rep.TotalFlits() {
		t.Errorf("round trip changed measurements: %+v vs %+v", back, rep)
	}
}
