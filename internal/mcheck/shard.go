package mcheck

import (
	"fmt"
	"slices"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
	"denovogpu/internal/runner"
)

// Prefix-based shard splitting. The top of the exploration tree is
// expanded breadth-first with *full branching* — every enabled
// transition at every node, filtered only by sleep sets — until the
// frontier is at least the requested unit count. Each frontier leaf
// becomes an independent Unit: the transition prefix that reaches it
// plus the sleep set it inherited. Units then run stateless
// source-DPOR below the cut (exploreDPOR with a non-zero Unit), and
// their results merge deterministically.
//
// Soundness of the cut: a race between an event inside the prefix and
// one below the cut would normally schedule a reversal at a prefix
// frame. Units skip those additions — but because the split phase
// branched every top-region node fully (sleep sets prune only
// redundant orders, which the sleep-set argument covers), the reversed
// schedule's prefix is itself a sibling unit, explored independently.
// Sleep sets compose across the cut the same way they do between
// siblings in one DFS: a unit whose first awake transition is asleep
// abandons the redundant prefix immediately.
//
// The merge contract (matching api.RunMatrix error semantics): States
// sum (the split phase's own expansions count once, prefix replays
// count zero), Outcomes union, and the Violation of the
// lowest-indexed unit — with a split-phase violation, which precedes
// every unit, winning outright. A *BudgetError from any unit surfaces
// as the lowest-unit-index error. Verdict and outcome set are
// identical to an unsharded run at any unit count or worker count;
// the States total differs between shard counts (different reductions
// prune differently) but is identical across reruns of the same
// split.

// maxSplitDepth bounds the breadth-first split phase; beyond this the
// frontier is returned as-is (programs this deep still shard, just
// into however many units exist at the cap).
const maxSplitDepth = 24

// SplitPlan is the outcome of the split phase: the work units, plus
// everything the top-region expansion itself already determined.
type SplitPlan struct {
	// Units are the frontier work units in deterministic order. Empty
	// when the whole exploration completed inside the split phase (tiny
	// programs) or when Violation is set.
	Units []Unit
	// States counts nodes the split phase expanded itself.
	States int
	// Outcomes are terminal outcomes reached inside the top region.
	Outcomes map[string]litmus.Outcome
	// Violation is a violation found inside the top region, if any.
	Violation *Violation
}

type splitNode struct {
	s      *state
	sleep  []sleepEnt
	prefix []trans
}

// prepare validates p and builds its model and consistency oracle
// under cfg: the setup every exploration shares.
func prepare(cfg machine.Config, p *litmus.Program, opts Options) (*model, map[string]litmus.Outcome, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	m, err := newModel(cfg, p)
	if err != nil {
		return nil, nil, err
	}
	oracle, err := litmus.Oracle(p, cfg.Model, opts.OracleStateLimit)
	return m, oracle, err
}

// Split partitions the exploration of p under cfg into at least target
// independent units (branching permitting).
func Split(cfg machine.Config, p *litmus.Program, opts Options, target int) (*SplitPlan, error) {
	m, oracle, err := prepare(cfg, p, opts)
	if err != nil {
		return nil, err
	}

	plan := &SplitPlan{Outcomes: make(map[string]litmus.Outcome)}
	violation := func(name, detail string, obs *litmus.Outcome, prefix []trans) *SplitPlan {
		plan.Units = nil
		plan.Violation = &Violation{
			Invariant: name, Detail: detail, Config: m.mcfg, Program: m.p,
			Observed: obs, Trace: m.labels(prefix),
		}
		return plan
	}

	frontier := []splitNode{{s: m.initial()}}
	for depth := 0; depth < maxSplitDepth && len(frontier) > 0 && len(frontier) < target; depth++ {
		var next []splitNode
		for _, nd := range frontier {
			plan.States++
			s := nd.s
			if s.viol != "" {
				return violation(s.viol, s.violDetail, nil, nd.prefix), nil
			}
			if name, detail := m.checkInvariants(s); name != "" {
				return violation(name, detail, nil, nd.prefix), nil
			}
			if m.terminal(s) {
				o, ok := m.outcome(s)
				if !ok {
					return violation(s.viol, s.violDetail, nil, nd.prefix), nil
				}
				k := o.Key()
				if _, permitted := oracle[k]; !permitted {
					return violation("oracle-conformance",
						fmt.Sprintf("reachable outcome %s is not permitted by the %v oracle", k, m.cfg.model),
						&o, nd.prefix), nil
				}
				plan.Outcomes[k] = o
				continue
			}
			enab := m.enabledInto(nil, s)
			if len(enab) == 0 {
				return violation("deadlock",
					"no transition enabled in a non-terminal state (lost wakeup or stranded request)",
					nil, nd.prefix), nil
			}
			var explored []sleepEnt
			for _, t := range enab {
				if sleepHas(nd.sleep, t) {
					continue
				}
				ft := m.dynFootprint(s, t)
				var cs []sleepEnt
				for _, u := range nd.sleep {
					if independent(u.fp, ft) {
						cs = append(cs, u)
					}
				}
				for _, u := range explored {
					if independent(u.fp, ft) {
						cs = append(cs, u)
					}
				}
				n := s.clone()
				m.apply(n, t)
				pfx := append(slices.Clip(nd.prefix), t)
				next = append(next, splitNode{s: n, sleep: cs, prefix: pfx})
				explored = append(explored, sleepEnt{t, ft})
			}
		}
		frontier = next
	}
	for _, nd := range frontier {
		var u Unit
		for _, t := range nd.prefix {
			u.Prefix = append(u.Prefix, uint32(t))
		}
		for _, e := range nd.sleep {
			u.Sleep = append(u.Sleep, uint32(e.t))
		}
		plan.Units = append(plan.Units, u)
	}
	return plan, nil
}

// CheckShard explores one Unit of program p under cfg: the prefix is
// replayed from the root (deterministically, uncounted), then
// source-DPOR runs below the cut. The zero Unit is a whole unsharded
// exploration. Budget applies to this unit alone.
func CheckShard(cfg machine.Config, p *litmus.Program, opts Options, u Unit) (*Result, error) {
	m, oracle, err := prepare(cfg, p, opts)
	if err != nil {
		return nil, err
	}
	budget := opts.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	states, outcomes, viol, err := m.exploreDPOR(oracle, budget, u)
	if err != nil {
		return nil, err
	}
	return &Result{States: states, Outcomes: outcomes, Violation: viol}, nil
}

// MergeShardResults combines a split plan with its per-unit results in
// unit order: summed States, unioned Outcomes, and the violation of
// the lowest-indexed unit (the split phase's own, which precedes every
// unit, wins outright). Nil entries — units an error stopped before
// running — contribute nothing.
func MergeShardResults(plan *SplitPlan, unitResults []*Result) *Result {
	merged := &Result{
		States:    plan.States,
		Outcomes:  make(map[string]litmus.Outcome, len(plan.Outcomes)),
		Violation: plan.Violation,
	}
	for k, o := range plan.Outcomes {
		merged.Outcomes[k] = o
	}
	for _, r := range unitResults {
		if r == nil {
			continue
		}
		merged.States += r.States
		for k, o := range r.Outcomes {
			merged.Outcomes[k] = o
		}
		if merged.Violation == nil && r.Violation != nil {
			merged.Violation = r.Violation
		}
	}
	return merged
}

// CheckSharded splits the exploration into at least shards units and
// runs them on a local worker pool (workers as in runner.Options: 0 =
// GOMAXPROCS, 1 = serial). Verdict and outcome set are identical to
// Check at any shard or worker count; shards <= 1 is exactly Check.
// Errors resolve to the lowest unit index (runner semantics), so a
// *BudgetError is deterministic too.
func CheckSharded(cfg machine.Config, p *litmus.Program, opts Options, shards, workers int) (*Result, error) {
	if shards <= 1 {
		return Check(cfg, p, opts)
	}
	plan, err := Split(cfg, p, opts, shards)
	if err != nil {
		return nil, err
	}
	if plan.Violation != nil || len(plan.Units) == 0 {
		return &Result{States: plan.States, Outcomes: plan.Outcomes, Violation: plan.Violation}, nil
	}
	results := make([]*Result, len(plan.Units))
	if _, err := runner.Run(len(plan.Units), runner.Options{Workers: workers}, func(i int) error {
		r, err := CheckShard(cfg, p, opts, plan.Units[i])
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	}); err != nil {
		return nil, err
	}
	return MergeShardResults(plan, results), nil
}
