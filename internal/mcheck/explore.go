package mcheck

import (
	"fmt"
	"slices"
	"time"

	"denovogpu/internal/coherence"
	"denovogpu/internal/litmus"
)

// Exploration: a depth-first search over the model's transition graph
// with sleep-set partial-order reduction and a visited set keyed by a
// canonical state encoding.
//
// Soundness of the reduction rests on an independence relation derived
// from write footprints. Every transition's mutations fall into two
// territories: one CU's controller state (its L1 words, store buffer,
// registration bookkeeping, and the progress/blocked/loads state of
// its threads) and one variable's home state (memory word + registry
// owner + the home's message processing). Message-channel effects are
// covered by the same bits: a channel (c -> home, v) is appended to
// only by cu(c)-footprint transitions and popped only by hv(v)-
// footprint deliveries — and a tail append commutes with a head pop
// whenever both are enabled (the channel is nonempty, so the popped
// head is unaffected by the append); likewise (home -> c, v) and
// direct CU-to-CU channels. Same-channel appends always share a
// footprint bit, so FIFO ordering conflicts are never declared
// independent.
//
// The one cross-footprint mutation is acquire-time stale marking,
// which flags a read's in-flight messages wherever they sit along the
// request chain (request, forward, deferred at an owner, response).
// It commutes with every delivery: a delivery only moves the request
// one stage down the chain, propagating the flag, so marking before
// or after the move produces the same state.
//
// The canonical encoding groups messages per channel (channels in
// sorted key order, within-channel FIFO order preserved), so two
// interleavings of independent transitions encode identically — which
// both the visited set and the sleep-set argument require.

// trans identifies a transition: kind in the top byte, operands below.
type trans uint32

const (
	tkStep       = 1 // a = thread index
	tkFinalRel   = 2 // a = CU slot
	tkEvict      = 3 // a = CU slot, c = variable
	tkFlushDirty = 4 // a = CU slot, c = variable
	tkWriteBack  = 5 // a = CU slot, c = variable
	tkLazyKick   = 6 // a = CU slot, c = variable
	tkDeliver    = 7 // a = src, b = dst, c = variable
)

func mkTrans(kind, a, b, c uint8) trans {
	return trans(kind)<<24 | trans(a)<<16 | trans(b)<<8 | trans(c)
}

func (t trans) parts() (kind, a, b, c uint8) {
	return uint8(t >> 24), uint8(t >> 16), uint8(t >> 8), uint8(t)
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
		ci := m.threadCU[a]
		if m.cfg.proto == protoSC {
			// SC steps act on memory directly; use the thread's static
			// variable set so the footprint is state-independent.
			return cuBit(ci) | m.scVarMask[a]
		}
		return cuBit(ci)
	case tkDeliver:
		if b == home {
			return hvBit(c)
		}
		return cuBit(b)
	default: // finalRel, evict, flushDirty, writeBack, lazyKick
		return cuBit(a)
	}
}

func independent[T uint32 | uint64](fa, fb T) bool { return fa&fb == 0 }

// enabledInto appends the enabled transitions of s to buf[:0] in a
// fixed deterministic order — thread steps, final releases, background
// cache actions, then channel deliveries by channel — and returns it.
// Deliveries sort by trans value, which orders channels exactly as
// (src, dst, v) does; callers pass a reused buffer so the DPOR hot
// loop enumerates without allocating.
func (m *model) enabledInto(buf []trans, s *state) []trans {
	// At most: every thread, every CU's final release, two background
	// actions per (CU, word), one delivery per message.
	ts := slices.Grow(buf[:0], m.nt+m.nc+2*m.nc*m.nv+len(s.msgs))
	done := m.allOpsDone(s)
	for ti := range m.p.Threads {
		if int(s.pcs[ti]) >= len(m.p.Threads[ti].Ops) || s.blocked&(1<<ti) != 0 {
			continue
		}
		if m.cfg.proto != protoSC {
			op := m.opOf(ti, s)
			releasing := (op.Kind == litmus.OpSyncStore || op.Kind == litmus.OpSyncAdd) &&
				m.cfg.model.Effective(op.Scope) == coherence.ScopeGlobal
			if releasing && s.relIssued&(1<<ti) != 0 && !m.fenceClear(s, ti) {
				continue
			}
		}
		ts = append(ts, mkTrans(tkStep, uint8(ti), 0, 0))
	}
	if m.cfg.proto != protoSC {
		if done {
			for ci := 0; ci < m.nc; ci++ {
				if s.finalRel&(1<<ci) == 0 {
					ts = append(ts, mkTrans(tkFinalRel, uint8(ci), 0, 0))
				}
			}
		} else {
			// Background cache actions. Suppressed once all operations have
			// completed: they are optional, and the final releases drain
			// whatever must still drain.
			for ci := 0; ci < m.nc; ci++ {
				cu := &s.cus[ci]
				for v := uint8(0); int(v) < m.nv; v++ {
					switch {
					case cu.st[v] == wClean:
						ts = append(ts, mkTrans(tkEvict, uint8(ci), 0, v))
					case cu.st[v] == wDirty:
						ts = append(ts, mkTrans(tkFlushDirty, uint8(ci), 0, v))
					case cu.st[v] == wReg && cu.vPresent&(1<<v) == 0:
						ts = append(ts, mkTrans(tkWriteBack, uint8(ci), 0, v))
					}
					if cu.lazy&(1<<v) != 0 {
						ts = append(ts, mkTrans(tkLazyKick, uint8(ci), 0, v))
					}
				}
			}
		}
	}
	first := len(ts)
	for i := range s.msgs {
		g := &s.msgs[i]
		t := mkTrans(tkDeliver, g.src, g.dst, g.v)
		if !slices.Contains(ts[first:], t) {
			ts = append(ts, t)
		}
	}
	slices.Sort(ts[first:])
	return ts
}

// apply executes transition t on s in place.
func (m *model) apply(s *state, t trans) {
	kind, a, b, c := t.parts()
	switch kind {
	case tkStep:
		m.step(s, int(a))
	case tkFinalRel:
		m.releaseIssue(s, a)
		s.finalRel |= 1 << a
	case tkEvict:
		s.cus[a].st[c] = wInvalid
	case tkFlushDirty:
		cu := &s.cus[a]
		m.sendWT(s, cu, a, c, cu.val[c])
		cu.st[c] = wInvalid
	case tkWriteBack:
		m.writeBack(s, a, c)
	case tkLazyKick:
		m.sendRegReq(s, &s.cus[a], a, c)
	case tkDeliver:
		m.deliver(s, a, b, c)
	default:
		s.fail("model-internal", fmt.Sprintf("unknown transition %#x", uint32(t)))
	}
}

// label names transition t taken at state pre for counterexample
// traces. It is the only place a step is named, and it runs only once
// a violation is found (see labels).
func (m *model) label(pre *state, t trans) string {
	kind, a, b, c := t.parts()
	switch kind {
	case tkStep:
		return fmt.Sprintf("t%d: %s", a, m.opOf(int(a), pre))
	case tkFinalRel:
		return fmt.Sprintf("cu%d: final release", a)
	case tkEvict:
		return fmt.Sprintf("cu%d: evict %s", a, vname(c))
	case tkFlushDirty:
		return fmt.Sprintf("cu%d: flush dirty %s", a, vname(c))
	case tkWriteBack:
		return fmt.Sprintf("cu%d: write back %s", a, vname(c))
	case tkLazyKick:
		return fmt.Sprintf("cu%d: register lazy %s", a, vname(c))
	case tkDeliver:
		if i := pre.head(a, b, c); i >= 0 {
			return "deliver " + pre.msgs[i].String()
		}
		return "deliver(empty)"
	}
	return "?"
}

// labels replays the transition sequence ts from the initial state and
// names each step: the counterexample trace of the execution ts.
func (m *model) labels(ts []trans) []string {
	out := make([]string, len(ts))
	s := m.initial()
	for i, t := range ts {
		out[i] = m.label(s, t)
		m.apply(s, t)
	}
	return out
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

		if m.terminal(s) {
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

		ts := m.enabledInto(nil, s)
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
