package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"denovogpu/internal/obs"
)

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestList(t *testing.T) {
	code, out, _ := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, bench := range []string{"LAVA", "FAM_G", "UTS"} {
		if !strings.Contains(out, bench) {
			t.Fatalf("-list output missing %s:\n%s", bench, out)
		}
	}
}

func TestRunBenchmark(t *testing.T) {
	code, out, errb := runCmd(t, "-bench", "LAVA", "-config", "DD", "-counters")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{"benchmark   LAVA", "config      DD", "exec time", "energy", "traffic", "counters"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestTextTrace: a .txt -trace path selects the text export, whose
// lines each name a track and a kind, and whose trailer counts what a
// bounded ring dropped.
func TestTextTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.txt")
	code, _, errb := runCmd(t, "-bench", "LAVA", "-config", "DD", "-trace", path, "-trace-cap", "1000")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 1001 {
		t.Fatalf("got %d lines, want 1000 events and a trailer", len(lines))
	}
	for _, line := range lines[:1000] {
		if f := strings.Split(line, "\t"); len(f) < 4 || f[1] == "" || f[2] == "" || f[2] == "kind?" {
			t.Fatalf("malformed event line %q", line)
		}
	}
	var total, dropped uint64
	if _, err := fmt.Sscanf(lines[1000], "# total=%d dropped=%d", &total, &dropped); err != nil || dropped == 0 || total != dropped+1000 {
		t.Fatalf("trailer %q: want total = dropped + 1000 with dropped > 0 (err %v)", lines[1000], err)
	}
}

func TestObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.csv")
	metricsJSON := filepath.Join(dir, "metrics.json")

	code, _, errb := runCmd(t, "-bench", "SPM_G", "-config", "DD",
		"-trace", tracePath, "-metrics", metricsPath, "-sample-every", "500")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(traceData); err != nil {
		t.Fatalf("-trace output is not a valid Chrome trace: %v", err)
	}
	metricsData, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateCSV(metricsData); err != nil {
		t.Fatalf("-metrics output is not a valid metrics CSV: %v", err)
	}

	// .json extension switches the metrics dump to the columnar JSON form.
	code, _, errb = runCmd(t, "-bench", "SPM_G", "-config", "DD", "-metrics", metricsJSON)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	jsonData, err := os.ReadFile(metricsJSON)
	if err != nil {
		t.Fatal(err)
	}
	var series obs.Series
	if err := json.Unmarshal(jsonData, &series); err != nil {
		t.Fatalf("-metrics .json output is not valid JSON: %v", err)
	}
	if len(series.Cols) == 0 || series.Cols[0] != "cycle" || series.Rows() == 0 {
		t.Fatalf("-metrics .json output malformed: cols=%v rows=%d", series.Cols, series.Rows())
	}
}

// TestObservabilityDoesNotPerturb asserts the cost contract: a run with
// tracing and sampling on reports the same cycles and fired events as a
// plain run.
func TestObservabilityDoesNotPerturb(t *testing.T) {
	dir := t.TempDir()
	code, plain, errb := runCmd(t, "-bench", "SPM_G", "-config", "DD")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, trace := range []string{"t.json", "t.txt"} {
		code, observed, errb := runCmd(t, "-bench", "SPM_G", "-config", "DD",
			"-trace", filepath.Join(dir, trace), "-metrics", filepath.Join(dir, "m.csv"))
		if code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb)
		}
		if plain != observed {
			t.Fatalf("observability (-trace %s) changed the report:\nplain:\n%s\nobserved:\n%s", trace, plain, observed)
		}
	}
}

// TestInvariantsDoNotPerturb: -invariants arms the sanitizer, and an
// armed run prints the same report, counters included, as a plain one.
func TestInvariantsDoNotPerturb(t *testing.T) {
	args := []string{"-bench", "LAVA", "-config", "DD", "-counters"}
	code, plain, errb := runCmd(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	code, armed, errb := runCmd(t, append(args, "-invariants")...)
	if code != 0 {
		t.Fatalf("-invariants: exit %d, stderr: %s", code, errb)
	}
	if plain != armed {
		t.Fatalf("-invariants changed the report:\nplain:\n%s\narmed:\n%s", plain, armed)
	}
}

// TestUnwritableOutputFailsFirst: an output path that cannot be created
// fails the command before it simulates. Had the run gone ahead, the
// valid -trace path would hold a whole trace by the time the -metrics
// one failed; instead it is still empty.
func TestUnwritableOutputFailsFirst(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.json")
	code, out, errb := runCmd(t, "-bench", "LAVA", "-config", "DD",
		"-trace", tracePath, "-metrics", filepath.Join(dir, "missing", "m.csv"))
	if code != 1 || out != "" || !strings.Contains(errb, "missing") {
		t.Fatalf("exit %d, stdout %q, stderr %q: want exit 1 naming the bad path and no report", code, out, errb)
	}
	if fi, err := os.Stat(tracePath); err != nil || fi.Size() != 0 {
		t.Fatalf("-trace file after the failure: %v, err %v; want it created and empty", fi, err)
	}
}

func TestErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // expected on stderr
	}{
		{"no bench", nil, "-bench is required"},
		{"bad flag", []string{"-nope"}, "flag provided but not defined"},
		{"unknown bench", []string{"-bench", "NOPE"}, "NOPE"},
		{"unknown config", []string{"-bench", "LAVA", "-config", "ZZ"}, "unknown configuration"},
		{"positional args", []string{"-bench", "LAVA", "-config", "DD", "extra"}, "unexpected arguments"},
		{"retired MESI config", []string{"-bench", "LAVA", "-config", "MESI"}, "unknown configuration"},
		{"retired syncbackoff flag", []string{"-bench", "LAVA", "-syncbackoff"}, "flag provided but not defined: -syncbackoff"},
		{"retired directtransfer flag", []string{"-bench", "LAVA", "-directtransfer"}, "flag provided but not defined: -directtransfer"},
		{"too many CUs", []string{"-bench", "LAVA", "-cus", "100"}, "100 CUs per device"},
		{"x2 bench on one device", []string{"-bench", "TB_LGx2", "-config", "DD"}, "sized for 2 devices"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			code, _, errb := runCmd(t, c.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb)
			}
			if !strings.Contains(errb, c.want) {
				t.Fatalf("stderr missing %q:\n%s", c.want, errb)
			}
		})
	}
}
