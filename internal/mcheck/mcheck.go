// Package mcheck is a bounded-exhaustive model checker for the
// simulator's coherence protocols. It enumerates every message and
// schedule interleaving of a small litmus program under an abstract
// word-granular model of a configuration's protocol — GPU
// writethrough (with or without HRF partial blocks) or DeNovo
// registration (eager or lazy) — checking a machine-readable
// invariant suite on every reachable state and the consistency oracle
// on every terminal outcome. Stateless source-DPOR with sleep sets
// over a footprint-based independence relation (dpor.go) keeps the
// enumeration tractable at litmus-program sizes in O(depth) memory,
// and splits into prefix units (shard.go) that Check runs on every
// core and sweepd distributes. It is the only explorer; the tests diff
// it against a visited-table reference.
//
// The model abstracts the cycle-level simulator but keeps the
// properties the protocols rely on: per-(source, destination, word)
// FIFO message delivery (what the mesh provides and the controllers
// assume), store-buffer coalescing with write ordering, acquire-time
// self-invalidation with in-flight fills going stale rather than
// vanishing, and the registry's single-owner transfer discipline.
// Where the model and the simulator can diverge it only adds
// interleavings (any-order lazy kicks, unserialized same-word local
// atomics), so a clean check never hides a modeled-protocol bug, and
// every reported counterexample carries a transition trace plus a
// litmus.Case for replay through the simulator itself.
package mcheck

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
)

// DefaultBudget bounds exploration per (configuration, program). The
// stateless DPOR explorer's memory is O(depth) regardless of budget,
// so the default is sized for deep checks rather than for the visited
// table that used to cap it at 2M; the bound exists so generated
// programs cannot wedge a CI run.
const DefaultBudget = 20_000_000

// Options tunes a Check call.
type Options struct {
	// Budget caps explored nodes; <= 0 uses DefaultBudget. Exceeding it
	// returns a *BudgetError. Check charges one budget for the whole
	// exploration, split phase included, whatever its worker count;
	// CheckShard charges it to its one unit, so a cell sweepd splits has
	// a budget per unit.
	Budget int
	// OracleStateLimit is passed through to litmus.Oracle (<= 0 uses
	// its default). A *litmus.StateLimitError from the oracle is
	// returned as an error, never as a violation.
	OracleStateLimit int
}

// Result is a completed exploration.
type Result struct {
	// States is the number of distinct nodes expanded.
	States int
	// Outcomes is every reachable terminal outcome, keyed by
	// Outcome.Key. Populated only up to the first violation.
	Outcomes map[string]litmus.Outcome
	// Violation is the first invariant or conformance failure found in
	// deterministic exploration order, or nil if the program checks
	// clean.
	Violation *Violation
}

// Violation is a model-checking counterexample.
type Violation struct {
	// Invariant is the violated invariant's name (see Invariants).
	Invariant string
	// Detail describes the failing state.
	Detail string
	Config machine.Config
	// Program is the litmus program being checked.
	Program *litmus.Program
	// Observed is the non-conformant outcome (oracle-conformance only).
	Observed *litmus.Outcome
	// Trace is the transition sequence from the initial state.
	Trace []string
}

func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mcheck: %s violated under %s: %s\n  program %s\n  trace (%d steps):",
		v.Invariant, v.Config.Name(), v.Detail, v.Program.Name, len(v.Trace))
	for _, step := range v.Trace {
		b.WriteString("\n    ")
		b.WriteString(step)
	}
	return b.String()
}

// Case converts the counterexample for replay and shrinking through
// the litmus machinery. The model trace itself does not transfer — the
// simulator schedules differently — but the (configuration, program)
// pair and the offending outcome do.
func (v *Violation) Case() *litmus.Case {
	return &litmus.Case{
		Config:   v.Config.Name(),
		Fault:    v.Config.FaultDisableAcquireInval,
		Program:  v.Program,
		Schedule: litmus.ZeroSchedule(v.Program),
		Observed: v.Observed,
	}
}

// BudgetError reports that exploration exhausted its node budget
// before completing. It is a budget exhaustion, not a verdict: the
// program is unverifiable at this budget. States and Elapsed record
// the progress made at exhaustion so budget sizing is data-driven.
type BudgetError struct {
	Budget  int
	Config  string
	Program string
	// States is the number of nodes explored when the budget ran out.
	States int
	// Elapsed is the wall time spent exploring them.
	Elapsed time.Duration
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("mcheck: state budget %d exhausted checking %q under %s (%d states in %v)",
		e.Budget, e.Program, e.Config, e.States, e.Elapsed.Round(time.Millisecond))
}

// Configs returns the configurations a full check covers: the paper's
// five and the DH lazy-writes ablation, whose release-time
// registration races are exactly where exhaustive checking earns its
// keep.
func Configs() []machine.Config {
	cfgs := machine.AllConfigs()
	lazy := machine.DH()
	lazy.LazyWrites = true
	return append(cfgs, lazy)
}

func (o Options) budget() int {
	if o.Budget <= 0 {
		return DefaultBudget
	}
	return o.Budget
}

// Check exhaustively explores program p under configuration cfg.
// A Violation is reported in the Result, not as an error; errors are
// invalid programs, oracle state-limit exhaustion
// (*litmus.StateLimitError), or exploration budget exhaustion
// (*BudgetError).
//
// The model and oracle are built once; the exploration is split into a
// fixed number of prefix units that run on runtime.GOMAXPROCS(0)
// workers, charged against the one budget in unit order (see shard.go).
// The Result — States, Outcomes and the Violation's trace — and a
// BudgetError's States are the same at every worker count.
func Check(cfg machine.Config, p *litmus.Program, opts Options) (*Result, error) {
	return check(cfg, p, opts, runtime.GOMAXPROCS(0))
}

// check is Check on the given number of workers.
func check(cfg machine.Config, p *litmus.Program, opts Options, workers int) (*Result, error) {
	m, oracle, err := prepare(cfg, p, opts)
	if err != nil {
		return nil, err
	}
	x := getExplorer()
	defer stacks.Put(x)
	start := time.Now()
	sp, err := x.split(m, oracle, opts.budget(), checkUnits)
	if err != nil {
		return nil, m.budgetError(opts.budget(), start)
	}
	return m.runUnits(oracle, opts.budget(), sp, x, workers, start)
}
