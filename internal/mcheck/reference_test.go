package mcheck

import (
	"fmt"
	"slices"
	"time"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
)

// The reference explorer: a depth-first search over the model's
// transition graph with sleep-set partial-order reduction over the
// static per-CU footprint (explore.go's soundness argument) and a
// visited set keyed by a canonical state encoding. It shares the
// transition system with the shipped DPOR explorer but nothing of its
// reduction, so the tests diff DPOR's verdicts and outcome sets
// against it. Its memory grows with the visited set.
//
// The canonical encoding groups messages per channel (channels in
// sorted key order, within-channel FIFO order preserved), so two
// interleavings of independent transitions encode identically — which
// both the visited set and the sleep-set argument require.

// checkReference is Check on the reference explorer; disablePOR
// explores the full interleaving graph with no reduction at all, the
// ground truth the sleep-set reduction is validated against.
func checkReference(cfg machine.Config, p *litmus.Program, budget int, disablePOR bool) (*Result, error) {
	m, oracle, err := prepare(cfg, p, Options{})
	if err != nil {
		return nil, err
	}
	if budget <= 0 {
		budget = DefaultBudget
	}
	states, outcomes, viol, err := m.explore(oracle, budget, disablePOR)
	if err != nil {
		return nil, err
	}
	return &Result{States: states, Outcomes: outcomes, Violation: viol}, nil
}

// footprint returns the write territories of a transition as a bitmask:
// bits 0..maxCUs-1 are CU territories, bits 8.. are home-variable
// territories.
func (m *model) footprint(t trans) uint32 {
	kind, a, b, c := t.parts()
	cuBit := func(ci uint8) uint32 { return 1 << ci }
	hvBit := func(v uint8) uint32 { return 1 << (8 + v) }
	switch kind {
	case tkStep:
		return cuBit(m.threadCU[a])
	case tkDeliver:
		if b == home {
			return hvBit(c)
		}
		return cuBit(b)
	default: // finalRel, evict, flushDirty, writeBack, lazyKick
		return cuBit(a)
	}
}

// encode produces the canonical byte representation of a state.
func (m *model) encode(s *state) string {
	b := make([]byte, 0, 256)
	p32 := func(v uint32) {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	for v := 0; v < m.nv; v++ {
		p32(s.mem[v])
		b = append(b, byte(s.owner[v]))
	}
	for ci := 0; ci < m.nc; ci++ {
		cu := &s.cus[ci]
		for v := 0; v < m.nv; v++ {
			b = append(b, byte(cu.st[v]))
			p32(cu.val[v])
			b = append(b, cu.wtCnt[v])
			if cu.wtCnt[v] > 0 {
				p32(cu.wtVal[v])
			}
			b = append(b, cu.syncQLen[v])
			b = append(b, cu.syncQ[v][:cu.syncQLen[v]]...)
			b = append(b, cu.defFwd[v], cu.defReadN[v])
			for i := uint8(0); i < cu.defReadN[v]; i++ {
				b = append(b, byte(cu.defRead[v][i]), byte(cu.defRead[v][i]>>8))
			}
			if cu.vPresent&(1<<v) != 0 {
				p32(cu.vVal[v])
			}
		}
		b = append(b, cu.sbLen)
		for i := uint8(0); i < cu.sbLen; i++ {
			b = append(b, cu.sbVar[i])
			p32(cu.sbVal[i])
		}
		b = append(b, cu.lazy, cu.regIn, cu.vPresent, cu.vServed, cu.vRejected)
	}
	for ti := 0; ti < m.nt; ti++ {
		b = append(b, s.pcs[ti], s.loadLen[ti], s.relWait[ti])
		for i := uint8(0); i < s.loadLen[ti]; i++ {
			p32(s.loads[ti][i])
		}
	}
	b = append(b, s.blocked, s.relIssued, s.finalRel)
	// Messages grouped per channel, channels in sorted key order,
	// within-channel FIFO order preserved: interleavings of independent
	// transitions encode identically.
	if len(s.msgs) > 0 {
		keys := make([]uint16, len(s.msgs))
		for i := range s.msgs {
			keys[i] = s.msgs[i].chanKey()
		}
		slices.Sort(keys)
		for _, k := range slices.Compact(keys) {
			b = append(b, 0xFE, byte(k), byte(k>>8))
			for i := range s.msgs {
				g := &s.msgs[i]
				if g.chanKey() != k {
					continue
				}
				flags := byte(0)
				if g.stale {
					flags |= 1
				}
				if g.accepted {
					flags |= 2
				}
				b = append(b, byte(g.kind), g.thread, g.req, g.op, flags)
				p32(g.val)
			}
		}
	}
	return string(b)
}

// traceNode is one step of the path to a state, shared structurally
// across the DFS so paths cost O(1) per node.
type traceNode struct {
	t      trans
	parent *traceNode
}

// path returns the transitions from the root to n, outermost first.
func (n *traceNode) path() []trans {
	var ts []trans
	for ; n != nil; n = n.parent {
		ts = append(ts, n.t)
	}
	slices.Reverse(ts)
	return ts
}

// subsetOf reports whether sorted slice a is a subset of sorted b.
func subsetOf(a, b []trans) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// explore runs the reduced DFS. It returns the number of nodes
// expanded, the terminal outcomes, and the first violation found (nil
// if none), or a *BudgetError once the node budget is exhausted.
//
// The visited set stores, per canonical state, the sleep sets it has
// been expanded with; a state is pruned when a previously expanded
// sleep set is a subset of the current one (a smaller sleep set
// explores strictly more, so the current node is covered).
func (m *model) explore(oracle map[string]litmus.Outcome, budget int, disablePOR bool) (int, map[string]litmus.Outcome, *Violation, error) {
	type frame struct {
		s     *state
		sleep []trans // sorted
		trace *traceNode
	}
	outcomes := make(map[string]litmus.Outcome)
	visited := make(map[string][][]trans)
	expanded := 0
	start := time.Now()
	stack := []frame{{s: m.initial()}}

	violation := func(name, detail string, obs *litmus.Outcome, tn *traceNode) *Violation {
		return &Violation{
			Invariant: name,
			Detail:    detail,
			Config:    m.mcfg,
			Program:   m.p,
			Observed:  obs,
			Trace:     m.labels(tn.path()),
		}
	}

	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s := fr.s

		key := m.encode(s)
		covered := false
		for _, old := range visited[key] {
			if subsetOf(old, fr.sleep) {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		if expanded >= budget {
			return expanded, outcomes, nil, &BudgetError{
				Budget: budget, Config: m.mcfg.Name(), Program: m.p.Name,
				States: expanded, Elapsed: time.Since(start),
			}
		}
		expanded++
		visited[key] = append(visited[key], fr.sleep)

		if s.viol != "" {
			return expanded, outcomes, violation(s.viol, s.violDetail, nil, fr.trace), nil
		}
		if name, detail := m.checkInvariants(s); name != "" {
			return expanded, outcomes, violation(name, detail, nil, fr.trace), nil
		}

		done := m.allOpsDone(s)
		if m.terminal(s, done) {
			o, ok := m.outcome(s)
			if !ok {
				return expanded, outcomes, violation(s.viol, s.violDetail, nil, fr.trace), nil
			}
			k := o.Key()
			if _, permitted := oracle[k]; !permitted {
				return expanded, outcomes, violation("oracle-conformance",
					fmt.Sprintf("reachable outcome %s is not permitted by the %v oracle", k, m.cfg.model),
					&o, fr.trace), nil
			}
			outcomes[k] = o
			continue
		}

		ts := m.enabledInto(nil, s, done)
		if len(ts) == 0 {
			return expanded, outcomes, violation("deadlock",
				"no transition enabled in a non-terminal state (lost wakeup or stranded request)",
				nil, fr.trace), nil
		}

		sleepSet := make(map[trans]bool, len(fr.sleep))
		if !disablePOR {
			for _, u := range fr.sleep {
				sleepSet[u] = true
			}
		}
		// Children are pushed in reverse so the lowest-ordered transition
		// pops first: exploration order (and therefore which violation is
		// reported) is deterministic.
		var children []frame
		var explored []trans
		for _, t := range ts {
			if sleepSet[t] {
				continue
			}
			n := s.clone()
			m.apply(n, t)
			var childSleep []trans
			if !disablePOR {
				ft := m.footprint(t)
				for _, u := range fr.sleep {
					if independent(m.footprint(u), ft) {
						childSleep = append(childSleep, u)
					}
				}
				for _, u := range explored {
					if independent(m.footprint(u), ft) {
						childSleep = append(childSleep, u)
					}
				}
				slices.Sort(childSleep)
				explored = append(explored, t)
			}
			children = append(children, frame{
				s:     n,
				sleep: childSleep,
				trace: &traceNode{t: t, parent: fr.trace},
			})
		}
		for i := len(children) - 1; i >= 0; i-- {
			stack = append(stack, children[i])
		}
	}
	return expanded, outcomes, nil, nil
}

// outcome reads a terminal state's outcome (see outcomeKey).
func (m *model) outcome(s *state) (litmus.Outcome, bool) {
	k, ok := m.outcomeKey(s)
	if !ok {
		return litmus.Outcome{}, false
	}
	return m.outcomeOf(&k), true
}
