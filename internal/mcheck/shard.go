package mcheck

import (
	"fmt"
	"sync"
	"time"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
)

// Prefix-based splitting. The top of the exploration tree is expanded
// breadth-first with *full branching* — every enabled transition at
// every node, filtered only by sleep sets — until the frontier is at
// least the requested unit count. Each frontier leaf becomes an
// independent unit: the transition prefix that reaches it plus the
// sleep set it inherited. Units then run stateless source-DPOR below
// the cut (explorer.explore), and their results merge
// deterministically. Check runs its units on every core; sweepd ships
// them to remote workers as Units (Split, CheckShard,
// MergeShardResults).
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
// The merge contract is a serial walk of the split phase and then the
// units in order: States sum (the split phase's own expansions count
// once, prefix replays count zero), Outcomes union, and the lowest
// violation wins — a split-phase violation, which precedes every unit,
// outright. Check stops its walk at that violation and charges one
// budget along the walk (see ledger); on sweepd's path every unit has
// a budget of its own. Verdict and outcome set are identical at any
// unit count; the
// States total differs between unit counts (different reductions prune
// differently) but is identical across reruns and worker counts.

// maxSplitDepth bounds the breadth-first split phase; beyond this the
// frontier is returned as-is (programs this deep still shard, just
// into however many units exist at the cap).
const maxSplitDepth = 24

// checkUnits is the unit count Check splits every exploration into. It
// does not depend on the worker count, so neither does Result.States.
// At 64 the largest catalog units are small enough for two workers to
// share the catalog's work almost evenly, and the split phase expands
// a few hundred nodes.
const checkUnits = 64

// grantChunk is how many nodes a unit explores between ledger grants.
const grantChunk = 4096

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

// splitNode is a frontier node of the split phase, and the unit it
// becomes: the transitions that reach it and the sleep set it
// inherited.
type splitNode struct {
	prefix []trans
	sleep  []sleepEnt
}

// splitPhase is what the split phase determined: the frontier units,
// the nodes it expanded, and a violation inside the top region. The
// outcomes it reached are in the explorer's seen set as unit -1.
type splitPhase struct {
	units  []splitNode
	states int
	viol   *Violation
}

// prepare validates p and builds its model and consistency oracle
// under cfg: the setup every exploration shares. Both are read-only
// afterwards, so the workers of one Check share them.
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

// split runs the split phase toward target units, charging its
// expansions against budget (errStop when they exhaust it). A node's
// state is rebuilt by replaying its prefix into one buffer, and every
// node's prefix and sleep set are cut from two shared arenas, so the
// phase allocates per level rather than per node.
func (x *explorer) split(m *model, oracle map[string]litmus.Outcome, budget, target int) (splitPhase, error) {
	var (
		sp             splitPhase
		pfx            []trans    // every node's prefix
		slp, explored  []sleepEnt // every node's sleep set; one node's explored siblings
		frontier, next = []splitNode{{}}, []splitNode(nil)
		s              = &x.replay
	)
	fail := func(name, detail string, obs *litmus.Outcome, prefix []trans) splitPhase {
		sp.units = nil
		sp.viol = &Violation{
			Invariant: name, Detail: detail, Config: m.mcfg, Program: m.p,
			Observed: obs, Trace: m.labels(prefix),
		}
		return sp
	}

	for depth := 0; depth < maxSplitDepth && len(frontier) > 0 && len(frontier) < target; depth++ {
		next = next[:0]
		for _, nd := range frontier {
			if sp.states >= budget {
				return sp, errStop
			}
			sp.states++
			m.reset(s)
			for _, t := range nd.prefix {
				m.apply(s, t)
			}
			if s.viol != "" {
				return fail(s.viol, s.violDetail, nil, nd.prefix), nil
			}
			if name, detail := m.checkInvariants(s); name != "" {
				return fail(name, detail, nil, nd.prefix), nil
			}
			if m.terminal(s) {
				key, ok := m.outcomeKey(s)
				if !ok {
					return fail(s.viol, s.violDetail, nil, nd.prefix), nil
				}
				if _, dup := x.seen[key]; !dup {
					o := m.outcomeOf(&key)
					k := o.Key()
					if _, permitted := oracle[k]; !permitted {
						return fail("oracle-conformance",
							fmt.Sprintf("reachable outcome %s is not permitted by the %v oracle", k, m.cfg.model),
							&o, nd.prefix), nil
					}
					x.seen[key] = seenOutcome{-1, k, o}
				}
				continue
			}
			x.enab = m.enabledInto(x.enab, s)
			if len(x.enab) == 0 {
				return fail("deadlock",
					"no transition enabled in a non-terminal state (lost wakeup or stranded request)",
					nil, nd.prefix), nil
			}
			explored = explored[:0]
			for _, t := range x.enab {
				if sleepHas(nd.sleep, t) {
					continue
				}
				ft := m.dynFootprint(s, t)
				p0, s0 := len(pfx), len(slp)
				pfx = append(append(pfx, nd.prefix...), t)
				for _, u := range nd.sleep {
					if independent(u.fp, ft) {
						slp = append(slp, u)
					}
				}
				for _, u := range explored {
					if independent(u.fp, ft) {
						slp = append(slp, u)
					}
				}
				next = append(next, splitNode{prefix: pfx[p0:len(pfx):len(pfx)], sleep: slp[s0:len(slp):len(slp)]})
				explored = append(explored, sleepEnt{t, ft})
			}
		}
		frontier, next = next, frontier
	}
	sp.units = frontier
	return sp, nil
}

// Split partitions the exploration of p under cfg into at least target
// independent units (branching permitting). The split phase's own
// expansions count against opts.Budget.
func Split(cfg machine.Config, p *litmus.Program, opts Options, target int) (*SplitPlan, error) {
	m, oracle, err := prepare(cfg, p, opts)
	if err != nil {
		return nil, err
	}
	x := getExplorer()
	defer stacks.Put(x)
	start := time.Now()
	sp, err := x.split(m, oracle, opts.budget(), target)
	if err != nil {
		return nil, m.budgetError(opts.budget(), start)
	}
	plan := &SplitPlan{States: sp.states, Outcomes: outcomesUpTo([]*explorer{x}, -1), Violation: sp.viol}
	for _, nd := range sp.units {
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

// CheckShard explores one Unit of program p under cfg, serially: the
// prefix is replayed from the root (deterministically, uncounted),
// then source-DPOR runs below the cut. The zero Unit is a whole
// exploration without a split phase. The budget applies to this unit
// alone.
func CheckShard(cfg machine.Config, p *litmus.Program, opts Options, u Unit) (*Result, error) {
	m, oracle, err := prepare(cfg, p, opts)
	if err != nil {
		return nil, err
	}
	nd := splitNode{prefix: make([]trans, len(u.Prefix)), sleep: make([]sleepEnt, len(u.Sleep))}
	for i, t := range u.Prefix {
		nd.prefix[i] = trans(t)
	}
	for i, t := range u.Sleep {
		nd.sleep[i].t = trans(t) // the footprint is taken at the cut
	}
	x := getExplorer()
	defer stacks.Put(x)
	return m.runUnits(oracle, opts.budget(), splitPhase{units: []splitNode{nd}}, x, 1, time.Now())
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

// runUnits explores the units of sp on up to workers explorers — x,
// which ran the split phase, and more from the stacks pool — under one
// ledger, and assembles the serial walk's result.
func (m *model) runUnits(oracle map[string]litmus.Outcome, budget int, sp splitPhase, x *explorer, workers int, start time.Time) (*Result, error) {
	xs := []*explorer{x}
	if sp.viol != nil || len(sp.units) == 0 {
		return &Result{States: sp.states, Outcomes: outcomesUpTo(xs, -1), Violation: sp.viol}, nil
	}
	l := newLedger(budget, sp.states, len(sp.units))
	var wg sync.WaitGroup
	for w := 1; w < min(workers, len(sp.units)); w++ {
		y := getExplorer()
		defer stacks.Put(y)
		xs = append(xs, y)
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.work(m, oracle, sp.units, y)
		}()
	}
	l.work(m, oracle, sp.units, x)
	wg.Wait()

	if l.exhausted {
		return nil, m.budgetError(budget, start)
	}
	last := &l.runs[l.end-1]
	if last.err != nil {
		return nil, last.err
	}
	return &Result{States: l.charged, Outcomes: outcomesUpTo(xs, l.end-1), Violation: last.viol}, nil
}

// outcomesUpTo collects the outcomes the explorers reached in the split
// phase and in units up to last.
func outcomesUpTo(xs []*explorer, last int) map[string]litmus.Outcome {
	out := make(map[string]litmus.Outcome)
	for _, x := range xs {
		for _, so := range x.seen {
			if so.unit <= last {
				out[so.key] = so.o
			}
		}
	}
	return out
}

func (m *model) budgetError(budget int, start time.Time) *BudgetError {
	return &BudgetError{
		Budget: budget, Config: m.mcfg.Name(), Program: m.p.Name,
		States: budget, Elapsed: time.Since(start),
	}
}

// ledger charges the nodes of one exploration's units against its
// budget in unit order, so the result is the one a serial walk of the
// split phase and then the units gives — completion, the lowest unit's
// violation, or budget exhaustion after exactly Budget nodes — however
// many workers run the units and however they interleave. Units
// explore in grants of nodes:
//
//   - The lowest uncharged unit runs on the budget the units below it
//     left, exactly as it would in the serial walk; needing a node
//     beyond that exhausts the budget.
//   - A unit above it runs speculatively, on nodes no other unit holds,
//     and waits when there are none. Its exploration does not depend on
//     when it waits, and once charged it either fits the budget left or
//     exhausts it.
//
// Speculation stops once the nodes held reach the budget, so a budget
// skip explores less than twice Budget nodes in total (the lowest unit
// may still need the whole budget), not Budget per unit, and a
// violation in unit j stops every unit above j.
type ledger struct {
	mu   sync.Mutex
	wake sync.Cond // a charge, an exhaustion or a stop

	budget    int
	charged   int // the split phase's nodes and those of the units below next
	granted   int // nodes granted to, or explored by, the units from next up
	claimed   int // units handed to workers
	next      int // the lowest unit not yet charged
	end       int // units from end up are not needed: a lower one ended the walk
	exhausted bool
	runs      []unitRun
}

type unitRun struct {
	limit    int // nodes granted; nodes explored once finished
	viol     *Violation
	err      error
	finished bool
}

func newLedger(budget, charged, units int) *ledger {
	l := &ledger{budget: budget, charged: charged, end: units, runs: make([]unitRun, units)}
	l.wake.L = &l.mu
	return l
}

// work runs units on x, in increasing order, until none is needed.
func (l *ledger) work(m *model, oracle map[string]litmus.Outcome, units []splitNode, x *explorer) {
	for j := l.claim(); j >= 0; j = l.claim() {
		states, viol, err := x.explore(m, oracle, &units[j], j, l)
		l.finish(j, states, viol, err)
	}
}

// claim hands out the next unit, or -1 when no further unit is needed.
func (l *ledger) claim() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.exhausted || l.claimed >= l.end {
		return -1
	}
	l.claimed++
	return l.claimed - 1
}

// grant raises unit j's node limit, which it has reached at states
// nodes. A limit of states or less stops the unit.
func (l *ledger) grant(j, states int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.exhausted || j >= l.end {
			return states
		}
		room := l.budget - l.charged - l.granted
		if j == l.next {
			if room = l.budget - l.charged - states; room <= 0 {
				l.exhausted = true
				l.wake.Broadcast()
				return states
			}
		}
		if room > 0 {
			r := &l.runs[j]
			lim := states + min(room, grantChunk)
			l.granted += lim - r.limit
			r.limit = lim
			return lim
		}
		l.wake.Wait()
	}
}

// finish records unit j's exploration and charges, in order, every
// finished unit that is now the lowest uncharged one.
func (l *ledger) finish(j, states int, viol *Violation, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err == errStop {
		return // exhausted, or above a unit that ended the walk
	}
	r := &l.runs[j]
	l.granted += states - r.limit
	r.limit, r.viol, r.err, r.finished = states, viol, err, true
	if viol != nil || err != nil {
		l.end = min(l.end, j+1)
	}
	for !l.exhausted && l.next < l.end && l.runs[l.next].finished {
		n := l.runs[l.next].limit
		if l.charged+n > l.budget {
			l.exhausted = true
			break
		}
		l.charged += n
		l.granted -= n
		l.next++
	}
	l.wake.Broadcast()
}
