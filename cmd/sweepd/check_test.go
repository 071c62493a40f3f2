package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"denovogpu"
	"denovogpu/internal/cli"
	"denovogpu/internal/resultcache"
	"denovogpu/internal/sweepd"
)

func TestCheckUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"check", "-nope"},
		{"check", "stray"},
		// Retired: DPOR is the only explorer.
		{"check", "-local", "-explorer", "dpor"},
		{"check", "-local", "-por=false"},
		// Retired: a served check runs whole cells.
		{"check", "-shards", "4"},
		{"check", "-local", "-programs", "NOPE"},
		{"check", "-local", "-configs", "NOPE"},
	} {
		if code, _, _ := runCmd(t, args...); code != cli.ExitUsage {
			t.Errorf("sweepd %v: exit %d, want %d", args, code, cli.ExitUsage)
		}
	}
}

// startCheckService serves a coordinator on a fresh result cache to
// two in-process workers until the test ends, and returns its URL.
func startCheckService(t *testing.T) string {
	t.Helper()
	cache, err := resultcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, srv := newServer(t, sweepd.Options{Cache: cache})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	t.Cleanup(func() { cancel(); wg.Wait() })
	for _, name := range []string{"w1", "w2"} {
		w := &sweepd.Worker{Server: srv.URL, Name: name, IdlePoll: 5 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	return srv.URL
}

// TestCheckLocalVsServed is the checker's end-to-end wall at the CLI:
// `check -local` and a served `check` through a coordinator with two
// workers must write byte-identical report files, States included, and
// a warm rerun must be served from the result cache.
func TestCheckLocalVsServed(t *testing.T) {
	server := startCheckService(t)
	sel := []string{"-programs", "MP,SB+sync", "-configs", "DD"}
	names := []string{"check_MP_DD.json", "check_SB-sync_DD.json"}

	localDir := filepath.Join(t.TempDir(), "local")
	code, out, errb := runCmd(t, append([]string{"check", "-local", "-out", localDir}, sel...)...)
	if code != 0 {
		t.Fatalf("local check exit %d\nstdout: %s\nstderr: %s", code, out, errb)
	}
	if !strings.Contains(out, "checked 2 cells serially") {
		t.Fatalf("local summary missing:\n%s", out)
	}

	for _, run := range []struct {
		name, hits string
	}{
		{"cold", "done: 2 cells (0 cache hits)"},
		{"warm", "done: 2 cells (2 cache hits)"},
	} {
		dir := filepath.Join(t.TempDir(), run.name)
		code, out, errb = runCmd(t, append([]string{"check", "-server", server, "-out", dir}, sel...)...)
		if code != 0 {
			t.Fatalf("%s served check exit %d\nstdout: %s\nstderr: %s", run.name, code, out, errb)
		}
		if !strings.Contains(out, run.hits) {
			t.Fatalf("%s served run should report %q:\n%s", run.name, run.hits, out)
		}
		for _, name := range names {
			want, err := os.ReadFile(filepath.Join(localDir, name))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s %s: served report diverges from local:\n--- local ---\n%s\n--- served ---\n%s", run.name, name, want, got)
			}
		}
	}
}

// TestCheckBudgetOneAnswer: a check has one budget wherever it runs. At
// a budget below SB+sync's 8,155 nodes under DD, `check -local` and a
// served `check` both fail that cell (index 1, after LB's 773-node
// cell checks clean) with the same budget exhaustion.
func TestCheckBudgetOneAnswer(t *testing.T) {
	server := startCheckService(t)
	sel := []string{"-programs", "LB,SB+sync", "-configs", "DD", "-budget", "4000"}
	budgetErr := regexp.MustCompile(`mcheck: state budget \d+ exhausted checking "[^"]+" under \S+ \(\d+ states`)

	var want cli.CellFailure
	for _, mode := range [][]string{{"-local"}, {"-server", server}} {
		code, out, errb := runCmd(t, append(append([]string{"check"}, mode...), sel...)...)
		if code != cli.ExitCellFailure {
			t.Fatalf("check %v: exit %d, want %d\nstdout: %s\nstderr: %s", mode, code, cli.ExitCellFailure, out, errb)
		}
		var got cli.CellFailure
		if err := json.Unmarshal([]byte(errb), &got); err != nil {
			t.Fatalf("check %v: failure line %q: %v", mode, errb, err)
		}
		// The elapsed time in the message differs between runs.
		got.Message = budgetErr.FindString(got.Message)
		if got.Message == "" {
			t.Fatalf("check %v: no budget error in %q", mode, errb)
		}
		if mode[0] == "-local" {
			want = got
			if want.Cell != 1 || want.Workload != "check:SB+sync" || want.Config != "DD" ||
				!strings.HasPrefix(want.Message, `mcheck: state budget 4000 exhausted checking "SB+sync" under DD (4000 states`) {
				t.Fatalf("local check failed %+v, want SB+sync (cell 1) exhausted at 4000 states", want)
			}
		} else if got != want {
			t.Errorf("served check failed %+v, local %+v", got, want)
		}
	}
}

// TestCheckViolationExitCode: a faulty configuration makes check exit
// with the cell-failure code in local mode.
func TestCheckViolationExitCode(t *testing.T) {
	// The raw fault config is not nameable from the CLI, so drive the
	// local path directly through a spec the CLI would have built.
	cfg, err := denovogpu.ConfigByName("DD")
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultDisableAcquireInval = true
	var out, errb strings.Builder
	code := runCheckLocal([]denovogpu.CellSpec{
		{Config: denovogpu.ConfigSpec{Raw: &cfg}, Program: "MP+preload"},
	}, "", &out, &errb)
	if code != cli.ExitCellFailure {
		t.Fatalf("violation exit %d, want %d\n%s", code, cli.ExitCellFailure, out.String())
	}
	if !strings.Contains(out.String(), "VIOLATION") {
		t.Errorf("no violation line:\n%s", out.String())
	}
}

// TestSubmitCheckCellsOut: `submit -out` with a check cell finishes
// with exit 0 and writes its report under the name `check -out` gives
// it.
func TestSubmitCheckCellsOut(t *testing.T) {
	_, srv := newServer(t, sweepd.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &sweepd.Worker{Server: srv.URL, Name: "w1", IdlePoll: 5 * time.Millisecond}
	go func() { _ = w.Run(ctx) }()

	check := denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "DH"}, Program: "SB+sync"}
	specPath := filepath.Join(t.TempDir(), "spec.json")
	data, _ := json.Marshal(denovogpu.MatrixSpec{Cells: []denovogpu.CellSpec{check}})
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	outDir := filepath.Join(t.TempDir(), "reports")
	code, out, errb := runCmd(t, "submit", "-server", srv.URL, "-spec", specPath, "-out", outDir)
	if code != 0 {
		t.Fatalf("submit exit %d\nstdout: %s\nstderr: %s", code, out, errb)
	}
	data, err := os.ReadFile(filepath.Join(outDir, "check_SB-sync_DH.json"))
	if err != nil {
		t.Fatal(err)
	}
	if r, err := denovogpu.UnmarshalCheckReport(data); err != nil || r.Program != "SB+sync" || r.Config != "DH" {
		t.Errorf("check_SB-sync_DH.json holds %s under %s (%v)", r.Program, r.Config, err)
	}
}

// TestCheckReportFileName: check and submit name a check cell's report
// alike, with "+" made file-name friendly in program and config.
func TestCheckReportFileName(t *testing.T) {
	s := denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "DD+RO"}, Program: "MP+preload"}
	if got := reportFileName(s); got != "check_MP-preload_DD-RO.json" {
		t.Errorf("file name %q", got)
	}
}
