package mcheck

import (
	"fmt"
	"slices"

	"denovogpu/internal/coherence"
	"denovogpu/internal/litmus"
)

// The transition system both explorers walk: transition identities,
// the enabled set of a state, and applying and naming a transition.
// The stateless source-DPOR explorer (dpor.go) is the only one the
// package ships; the tests keep a visited-table explorer with
// sleep-set reduction (reference_test.go) as the reference it is
// diffed against.
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
// independent. DPOR's dynamic footprint (dpor.go) refines these
// territories and keeps the argument.
//
// The one cross-footprint mutation is acquire-time stale marking,
// which flags a read's in-flight messages wherever they sit along the
// request chain (request, forward, deferred at an owner, response).
// It commutes with every delivery: a delivery only moves the request
// one stage down the chain, propagating the flag, so marking before
// or after the move produces the same state.

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
		op := m.opOf(ti, s)
		releasing := (op.Kind == litmus.OpSyncStore || op.Kind == litmus.OpSyncAdd) &&
			m.cfg.model.Effective(op.Scope) == coherence.ScopeGlobal
		if releasing && s.relIssued&(1<<ti) != 0 && !m.fenceClear(s, ti) {
			continue
		}
		ts = append(ts, mkTrans(tkStep, uint8(ti), 0, 0))
	}
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
