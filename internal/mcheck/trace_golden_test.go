package mcheck

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
)

var update = flag.Bool("update", false, "rewrite testdata/trace golden counterexamples with current output")

// TestCounterexampleTraceGolden pins the full counterexample — invariant,
// detail and every trace step, as Violation.Error renders them — for
// the fault-injected MP+preload cell under GD and DD. Every explorer
// (Check on every core, Check's split phase cut at 4 units on one
// worker, and the sleep-set reference) reports the same first
// counterexample on this cell, so each config has one golden file that
// every explorer must match. Trace labels are
// built from transitions only once a violation is found; this is the
// wall that keeps that rebuild byte-stable.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/mcheck -run TestCounterexampleTraceGolden -update
func TestCounterexampleTraceGolden(t *testing.T) {
	mp := catalogProgram(t, "MP+preload")
	explorers := []struct {
		name string
		run  func(machine.Config) (*Result, error)
	}{
		{"dpor", func(cfg machine.Config) (*Result, error) { return Check(cfg, mp, Options{}) }},
		{"sharded4", func(cfg machine.Config) (*Result, error) { return check(cfg, mp, Options{}, 4, 1) }},
		{"sleepset", func(cfg machine.Config) (*Result, error) { return checkReference(cfg, mp, 0, false) }},
	}
	for _, base := range []machine.Config{machine.GD(), machine.DD()} {
		cfg := base
		cfg.FaultDisableAcquireInval = true
		path := filepath.Join("testdata", "trace", "MP-preload-"+base.Name()+".txt")
		for i, ex := range explorers {
			t.Run(base.Name()+"/"+ex.name, func(t *testing.T) {
				res, err := ex.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Violation == nil {
					t.Fatal("fault injection not detected")
				}
				got := []byte(res.Violation.Error() + "\n")
				if *update && i == 0 {
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
					t.Fatalf("%v (run with -update to record)", err)
				}
				if string(got) != string(want) {
					t.Fatalf("counterexample differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
				}
			})
		}
	}
}

func catalogProgram(t testing.TB, name string) *litmus.Program {
	t.Helper()
	for _, e := range litmus.Catalog() {
		if e.Program.Name == name {
			return e.Program
		}
	}
	t.Fatalf("%s not in catalog", name)
	return nil
}
