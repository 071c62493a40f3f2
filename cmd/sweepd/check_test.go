package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
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
		{"check", "-local", "-programs", "NOPE"},
		{"check", "-local", "-configs", "NOPE"},
	} {
		if code, _, _ := runCmd(t, args...); code != cli.ExitUsage {
			t.Errorf("sweepd %v: exit %d, want %d", args, code, cli.ExitUsage)
		}
	}
}

// TestCheckLocalVsSharded is the checker's end-to-end wall at the CLI:
// `check -local` and a sharded `check` through a coordinator with two
// workers must write byte-identical verdict files, and a warm rerun
// must be served from the result cache.
func TestCheckLocalVsSharded(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, srv := newServer(t, sweepd.Options{Cache: cache})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, name := range []string{"w1", "w2"} {
		w := &sweepd.Worker{Server: srv.URL, Name: name, IdlePoll: 5 * time.Millisecond}
		go func() { _ = w.Run(ctx) }()
	}

	sel := []string{"-programs", "MP,SB+sync", "-configs", "DD"}

	localDir := filepath.Join(t.TempDir(), "local")
	code, out, errb := runCmd(t, append([]string{"check", "-local", "-out", localDir}, sel...)...)
	if code != 0 {
		t.Fatalf("local check exit %d\nstdout: %s\nstderr: %s", code, out, errb)
	}
	if !strings.Contains(out, "checked 2 cells serially") {
		t.Fatalf("local summary missing:\n%s", out)
	}

	shardDir := filepath.Join(t.TempDir(), "sharded")
	code, out, errb = runCmd(t, append([]string{"check", "-server", srv.URL, "-shards", "4", "-out", shardDir}, sel...)...)
	if code != 0 {
		t.Fatalf("sharded check exit %d\nstdout: %s\nstderr: %s", code, out, errb)
	}
	if !strings.Contains(out, "0 cache hits") {
		t.Fatalf("cold sharded run should report 0 cache hits:\n%s", out)
	}

	for _, prog := range []string{"MP", "SB+sync"} {
		name := denovogpu.CheckVerdictFileName(prog, "DD")
		want, err := os.ReadFile(filepath.Join(localDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(shardDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: sharded verdict diverges from serial:\n--- serial ---\n%s\n--- sharded ---\n%s", name, want, got)
		}
	}

	// Warm rerun: every unit served from the cache.
	code, out, errb = runCmd(t, append([]string{"check", "-server", srv.URL, "-shards", "4", "-out", shardDir}, sel...)...)
	if code != 0 {
		t.Fatalf("warm sharded check exit %d, stderr: %s", code, errb)
	}
	if strings.Contains(out, "0 cache hits") || !strings.Contains(out, "cache hits") {
		t.Fatalf("warm rerun not served from cache:\n%s", out)
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

// TestSubmitCheckCellsOut: `submit -out` with a check cell and a shard
// cell finishes with exit 0 and writes one report per cell, named by
// the check-verdict rule plus the shard index.
func TestSubmitCheckCellsOut(t *testing.T) {
	_, srv := newServer(t, sweepd.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &sweepd.Worker{Server: srv.URL, Name: "w1", IdlePoll: 5 * time.Millisecond}
	go func() { _ = w.Run(ctx) }()

	check := denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "DD"}, Program: "MP"}
	shards, _, err := denovogpu.SplitCheckCell(denovogpu.CellSpec{Config: denovogpu.ConfigSpec{Name: "DH"}, Program: "SB+sync"}, 2)
	if err != nil || len(shards) < 2 {
		t.Fatalf("split: %d shards, %v", len(shards), err)
	}
	specPath := filepath.Join(t.TempDir(), "spec.json")
	data, _ := json.Marshal(denovogpu.MatrixSpec{Cells: []denovogpu.CellSpec{check, shards[1]}})
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	outDir := filepath.Join(t.TempDir(), "reports")
	code, out, errb := runCmd(t, "submit", "-server", srv.URL, "-spec", specPath, "-out", outDir)
	if code != 0 {
		t.Fatalf("submit exit %d\nstdout: %s\nstderr: %s", code, out, errb)
	}
	for _, c := range []struct {
		name    string
		program string
		shard   int
	}{
		{denovogpu.CheckVerdictFileName("MP", "DD"), "MP", -1},
		{"check_SB-sync_shard1_DH.json", "SB+sync", 1},
	} {
		data, err := os.ReadFile(filepath.Join(outDir, c.name))
		if err != nil {
			t.Fatal(err)
		}
		r, err := denovogpu.UnmarshalCheckReport(data)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if r.Program != c.program || (r.Shard == nil) != (c.shard < 0) || (r.Shard != nil && r.Shard.Index != c.shard) {
			t.Errorf("%s holds the report of %s shard %+v", c.name, r.Program, r.Shard)
		}
	}
}
