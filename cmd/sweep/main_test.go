package main

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"denovogpu"
	"denovogpu/internal/cli"
	"denovogpu/internal/figures"
)

func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// stubMatrix builds a tiny synthetic sweep result so figure modes can be
// smoke-tested without the minutes-long simulations behind them.
func stubMatrix(err error) *figures.Matrix {
	m := &figures.Matrix{
		Benches: []string{"STUB"},
		Configs: []string{"GD", "DD"},
		Runs:    map[string]map[string]*figures.Run{"STUB": {}},
	}
	for i, c := range m.Configs {
		rep := denovogpu.Report{Config: c, Workload: "STUB", Cycles: uint64(100 + 10*i)}
		rep.EnergyPJ[0] = 1000
		rep.Flits[0] = 50
		m.Runs["STUB"][c] = &figures.Run{Bench: "STUB", Config: c, Report: rep, Err: err}
	}
	return m
}

func TestTables(t *testing.T) {
	code, out, errb := runCmd(t, "-table1", "-table2", "-table3", "-table4", "-table5")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "Table 4", "Table 5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestFigureStubbed(t *testing.T) {
	orig := sweepFig3
	sweepFig3 = func(int) *figures.Matrix { return stubMatrix(nil) }
	defer func() { sweepFig3 = orig }()

	code, out, errb := runCmd(t, "-fig3")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{"Figure 3a", "Figure 3b", "Figure 3c", "STUB", "energy breakdown", "traffic breakdown"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestGraphStubbed(t *testing.T) {
	orig := sweepGraph
	sweepGraph = func(int) *figures.Matrix { return stubMatrix(nil) }
	defer func() { sweepGraph = orig }()

	code, out, errb := runCmd(t, "-graph")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{"Figure Ga", "Figure Gb", "Figure Gc", "STUB", "energy breakdown", "traffic breakdown"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestXDevStubbed(t *testing.T) {
	origS, origC := sweepXDev, sweepCliff
	sweepXDev = func(int) *figures.Matrix { return stubMatrix(nil) }
	sweepCliff = func(config string, devices, iters int) (figures.XDevCliffResult, error) {
		return figures.XDevCliffResult{
			Config: "DDx2", Iters: iters, CrossCU: 15,
			Local: figures.XDevCliffRun{Cycles: 100},
			Cross: figures.XDevCliffRun{Cycles: 500, XDevFlits: 42},
		}, nil
	}
	defer func() { sweepXDev, sweepCliff = origS, origC }()

	code, out, errb := runCmd(t, "-xdev", "-devices", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{"Figure Xa", "STUB", "Cross-device sync cliff", "cycle ratio: 5.00x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFigureSweepErrorFails(t *testing.T) {
	orig := sweepFig3
	sweepFig3 = func(int) *figures.Matrix { return stubMatrix(errors.New("synthetic sweep failure")) }
	defer func() { sweepFig3 = orig }()

	code, _, errb := runCmd(t, "-fig3")
	if code != cli.ExitCellFailure {
		t.Fatalf("exit %d, want %d (matrix-cell failure)", code, cli.ExitCellFailure)
	}
	if !strings.Contains(errb, "synthetic sweep failure") {
		t.Fatalf("stderr missing the sweep error:\n%s", errb)
	}
	// A machine-readable record accompanies the human line.
	var failure cli.CellFailure
	found := false
	for _, l := range strings.Split(errb, "\n") {
		if strings.HasPrefix(l, "{") && json.Unmarshal([]byte(l), &failure) == nil {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no machine-readable JSON line on stderr:\n%s", errb)
	}
	if failure.Error != "matrix_cell_failure" || failure.Workload != "STUB" || failure.Config != "GD" {
		t.Fatalf("machine-readable line %+v", failure)
	}
	if !strings.Contains(failure.Message, "synthetic sweep failure") {
		t.Fatalf("machine line lost the cell error: %+v", failure)
	}
}

// brokenPipe fails every write after the first n bytes, modeling the
// EPIPE a downstream `| head` produces once it exits.
type brokenPipe struct {
	n       int
	written int
}

func (b *brokenPipe) Write(p []byte) (int, error) {
	if b.written+len(p) > b.n {
		allowed := b.n - b.written
		if allowed < 0 {
			allowed = 0
		}
		b.written += allowed
		return allowed, errors.New("broken pipe")
	}
	b.written += len(p)
	return len(p), nil
}

func TestStdoutWriteErrorFails(t *testing.T) {
	var errb strings.Builder
	code := run([]string{"-table1", "-table2"}, &brokenPipe{n: 16}, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 on stdout write failure", code)
	}
	if !strings.Contains(errb.String(), "broken pipe") {
		t.Fatalf("stderr missing the write error:\n%s", errb.String())
	}
}

func TestErrorPaths(t *testing.T) {
	if code, _, _ := runCmd(t); code != cli.ExitUsage {
		t.Fatalf("no flags: exit %d, want %d", code, cli.ExitUsage)
	}
	code, _, errb := runCmd(t, "-nope")
	if code != cli.ExitUsage {
		t.Fatalf("bad flag: exit %d, want %d", code, cli.ExitUsage)
	}
	if !strings.Contains(errb, "flag provided but not defined") {
		t.Fatalf("stderr missing flag error:\n%s", errb)
	}
}
