// Command litmus drives the memory-consistency litmus engine: it runs
// the catalog of classic shapes under every configuration, fuzzes
// random programs differentially against the executable oracle,
// exhaustively model-checks programs against the protocol invariant
// suite, and replays saved counterexample cases.
//
// Usage:
//
//	litmus -catalog                  # catalog under the five configs
//	litmus -fuzz 500 -seed 42        # differential fuzzing
//	litmus check -gen 50 -j 4        # exhaustive model checking
//	litmus -replay case.json         # re-run a shrunk counterexample
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
	"denovogpu/internal/mcheck"
	"denovogpu/internal/runner"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "check" {
		return runCheck(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("litmus", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		catalog = fs.Bool("catalog", false, "run the litmus catalog under every configuration")
		fuzz    = fs.Int("fuzz", 0, "differentially fuzz N seeded random programs")
		seed    = fs.Uint64("seed", 20260805, "base seed for -fuzz and schedule generation (splittable: program i is the same for any N)")
		nsched  = fs.Int("schedules", 5, "schedules per (program, configuration)")
		jobs    = fs.Int("j", 0, "fuzz shards checked in parallel (0 = GOMAXPROCS, 1 = serial; any value reports the same lowest-index violation)")
		replay  = fs.String("replay", "", "replay a saved counterexample case (JSON file)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *catalog:
		return runCatalog(stdout, stderr, *nsched, *seed)
	case *fuzz > 0:
		return runFuzz(stdout, stderr, *fuzz, *seed, *nsched, *jobs)
	case *replay != "":
		return runReplay(stdout, stderr, *replay)
	}
	fmt.Fprintln(stderr, "litmus: one of -catalog, -fuzz N, -replay FILE, or the check subcommand is required")
	fs.Usage()
	return 2
}

// runCatalog executes every catalog shape under every configuration and
// reports, per configuration, whether the shape's weak outcome was
// observed — so the output doubles as a behavioral comparison of the
// five configurations. Any outcome outside the oracle's permitted set
// fails the run.
func runCatalog(stdout, stderr io.Writer, nsched int, seed uint64) int {
	cfgs := machine.AllConfigs()
	fmt.Fprintf(stdout, "%-22s %-6s %-6s", "shape", "DRF?", "HRF?")
	for _, cfg := range cfgs {
		fmt.Fprintf(stdout, " %-6s", cfg.Name())
	}
	fmt.Fprintln(stdout)

	bad := 0
	for _, e := range Catalog() {
		fmt.Fprintf(stdout, "%-22s %-6s %-6s", e.Program.Name, permits(e.AllowedDRF), permits(e.AllowedHRF))
		scheds := litmus.Schedules(e.Program, nsched, seed)
		for _, cfg := range cfgs {
			v, err := litmus.Check([]machine.Config{cfg}, e.Program, scheds)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			if v != nil {
				fmt.Fprintf(stdout, " %-6s", "FAIL")
				fmt.Fprintln(stderr, v.Error())
				bad++
				continue
			}
			weak := "strong"
			for _, s := range scheds {
				o, err := litmus.Run(cfg, e.Program, s)
				if err != nil {
					fmt.Fprintln(stderr, err)
					return 1
				}
				if e.Weak(o) {
					weak = "weak"
					break
				}
			}
			fmt.Fprintf(stdout, " %-6s", weak)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "\n%d shapes x %d configs x %d schedules", len(Catalog()), len(cfgs), nsched)
	if bad > 0 {
		fmt.Fprintf(stdout, ": %d ORACLE VIOLATIONS\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, ": all outcomes permitted by the oracle")
	return 0
}

func permits(allowed bool) string {
	if allowed {
		return "allows"
	}
	return "forbids"
}

// Catalog is an indirection point so tests can exercise the CLI with a
// smaller catalog.
var Catalog = litmus.Catalog

// runFuzz shards the n seeded programs over a bounded worker pool.
// Program generation is splittable (program i is the same for any n and
// any worker count), each shard runs its own simulations, and failures
// are resolved to the lowest program index: the pool dispatches indices
// in order, so when any shard fails, every lower index has already been
// dispatched and completes — scanning the per-index outcomes therefore
// reports exactly the violation a serial loop would have found first.
func runFuzz(stdout, stderr io.Writer, n int, seed uint64, nsched, jobs int) int {
	cfgs := machine.AllConfigs()
	gp := litmus.DefaultGenParams()
	type outcome struct {
		v   *litmus.Violation
		err error
	}
	outcomes := make([]outcome, n)
	var checked, unverifiable atomic.Int64
	failed := errors.New("shard failed")
	runner.Run(n, runner.Options{
		Workers: jobs,
		OnDone: func(i int, err error) {
			if c := checked.Add(1); c%50 == 0 && err == nil {
				fmt.Fprintf(stderr, "litmus: %d/%d programs conform\n", c, n)
			}
		},
	}, func(i int) error {
		p := litmus.Generate(seed, uint64(i), gp)
		v, err := litmus.Check(cfgs, p, litmus.Schedules(p, nsched, seed^uint64(i)))
		var sl *litmus.StateLimitError
		if errors.As(err, &sl) {
			// Oracle budget exhaustion, not a violation: the permitted
			// set is incomplete, so the program cannot be judged either
			// way. Skip it rather than raising a false alarm.
			unverifiable.Add(1)
			return nil
		}
		outcomes[i] = outcome{v, err}
		if err != nil || v != nil {
			return failed
		}
		return nil
	})
	for _, o := range outcomes {
		if o.err != nil {
			fmt.Fprintln(stderr, o.err)
			return 1
		}
		if o.v != nil {
			v := o.v
			fmt.Fprintln(stderr, v.Error())
			sp, ss := litmus.Shrink(v.Config, v.Program, v.Schedule)
			c := &litmus.Case{Config: v.Config.Name(), Program: sp, Schedule: ss, Observed: &v.Observed}
			js, jerr := c.MarshalIndent()
			if jerr != nil {
				fmt.Fprintln(stderr, jerr)
				return 1
			}
			fmt.Fprintf(stderr, "shrunk to %d ops; replay with: litmus -replay case.json\n", sp.NumOps())
			fmt.Fprintln(stdout, string(js))
			return 1
		}
	}
	if u := unverifiable.Load(); u > 0 {
		fmt.Fprintf(stderr, "litmus: %d programs skipped (oracle state limit)\n", u)
	}
	fmt.Fprintf(stdout, "fuzzed %d programs (seed %d) under %d configurations: no oracle violations\n", n, seed, len(cfgs))
	return 0
}

func runReplay(stdout, stderr io.Writer, path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	c, err := litmus.ParseCase(data)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var cfg machine.Config
	found := false
	for _, cand := range mcheck.Configs() {
		if cand.Name() == c.Config {
			cfg, found = cand, true
			break
		}
	}
	if !found {
		fmt.Fprintf(stderr, "litmus: case names unknown configuration %q\n", c.Config)
		return 1
	}
	cfg.FaultDisableAcquireInval = c.Fault

	obs, err := litmus.Run(cfg, c.Program, c.Schedule)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\nconfig   %s (fault=%v, model %v)\nobserved %s\n", c.Program, c.Config, c.Fault, cfg.Model, obs.Key())
	if c.Observed != nil && obs.Key() != c.Observed.Key() {
		fmt.Fprintf(stdout, "note: case recorded %s (timing-dependent behaviors can differ across protocol changes)\n", c.Observed.Key())
	}
	allowed, err := litmus.Oracle(c.Program, cfg.Model, 0)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if _, ok := allowed[obs.Key()]; !ok {
		keys := make([]string, 0, len(allowed))
		for k := range allowed {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(stdout, "VIOLATION: outcome not permitted by the %v oracle; %d permitted outcomes:\n", cfg.Model, len(keys))
		for _, k := range keys {
			fmt.Fprintf(stdout, "  %s\n", k)
		}
		return 1
	}
	fmt.Fprintf(stdout, "outcome permitted by the %v oracle (violation no longer reproduces)\n", cfg.Model)
	return 0
}
