package mcheck

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"denovogpu/internal/coherence"
	"denovogpu/internal/litmus"
)

// Stateless source-DPOR exploration (Abdulla, Aronis, Jonsson,
// Sagonas: "Source Sets: A Foundation for Optimal Dynamic Partial
// Order Reduction", adapted to this transition system). Where the
// tests' reference explorer (reference_test.go) prunes with a visited
// table keyed by a canonical state encoding — memory proportional to
// the number of distinct states — this explorer keeps only the current
// execution: a stack of frames, one per depth, each holding the state
// reached and the backtrack/sleep bookkeeping of the node, plus the
// executed events with their footprints and happens-before clocks.
// Peak memory is O(depth) (the clocks O(depth²) bits), independent of
// how many states the search visits, which is what lets the budget
// rise from state-table scale (~2M) to tens of millions.
//
// The stack also makes a node cost no allocation. Each depth owns one
// state buffer and one set of frame slices for the explorer's lifetime:
// a child state is the parent's copied into its depth's buffer and
// advanced in place, and a frame pushed where an earlier one was popped
// reuses that frame's slices. A depth's state is therefore valid only
// while its frame is on the stack. The copy takes only the program's
// CUs and threads' loads; the rest of every buffer stays zero
// (fitShape). Nothing is named per node either:
// counterexample trace labels are built from the stack's transitions
// only once a violation is found (model.labels).
//
// The transition-id-as-process abstraction: a trans value is treated
// as a "process" — at any state it denotes at most one enabled action
// (thread a's next operation, the head delivery of one channel, one
// background action of one CU word). Per-territory program order falls
// out of the dependency relation automatically, because two events
// with the same trans id share a footprint bit and are therefore
// dependent.
//
// Dependence uses a *dynamic* footprint (dynFootprint), finer than the
// reference explorer's static one. That relation is per-CU: any two
// transitions touching the same CU are dependent. That coarseness is
// nearly free under a visited table — both orders of a commuting pair
// re-converge on a hashed state — but fatal for stateless search,
// which would walk both orders of every same-CU diamond (background
// actions, acks, and thread steps on *different* words commute
// constantly) and multiply them. The dynamic footprint separates
// territories a transition actually touches at the state where it
// fires: one bit per (CU, word) L1 slot, one per thread's control
// state (pc, blocked, pending loads, release bookkeeping), one per
// variable's registry/L2 home, one per CU's end-of-kernel control.
// Transitions that read CU-wide state stay CU-coarse: a release drain
// reads the whole store buffer and the lazy/dirty masks, and a global
// acquire sweeps every clean word and races with the CU's own
// in-flight fills (it marks them stale), so both take every slot bit
// of their CU. Message sends are deliberately *not* footprinted: all
// appends to one channel already share a bit through their cause (a
// channel is per-(src, dst, var)), and an append commutes with the
// same channel's head delivery whenever both are enabled. Store-buffer
// insertion *order* is also not footprinted: slots are per-word, and
// the only order-sensitive reader (the release drain, which emits
// writethroughs oldest-first) targets per-word channels, so the
// resulting states differ only in dead bytes. Both exclusions — and
// the relation as a whole — are checked empirically by the
// TestDPORConformance differential wall against the unreduced and
// sleep-set explorers. That a footprint names every variable and CU
// whose state its transition changes, the messages it sends included,
// is checked by TestFootprintCoversTransitionWrites; the explorer's
// incremental invariant check rests on it (touched).
//
// Happens-before is the transitive closure of the footprint-dependency
// order within one execution: event i happens-before event n iff i < n
// and a chain of pairwise-dependent events connects them. Each event
// carries a clock — the bitset of its happens-before predecessors —
// computed incrementally when the event is appended. The explorer
// keeps, per footprint bit, the set of events whose footprint holds
// it, so the new event's dependent predecessors are the union of its
// bits' sets. Walking them in descending order, a dependent event i
// that is not already covered by the clocks merged so far is a *race*
// (nothing between them is ordered after i and before the new event,
// so the two are adjacent in the happens-before order and their order
// could be reversed); every dependent event merges its clock into the
// covered set. A covered event's clock is already inside the covered
// set (clocks are transitively closed), so skipping covered events
// loses nothing and the test stays exact.
//
// For a race (i, n) the reversal candidate sequence is
// v = notdep(i, E)·t_n: the events after i that do not happen-after i,
// followed by the racing transition itself. Source-set backtracking
// schedules one *initial* of v at frame i — an event of v with no
// happens-before predecessor inside v — unless some initial is already
// scheduled there (then the reversal is covered). The first element of
// notdep is always an initial; when notdep is empty the candidate is
// t_n itself. Because the footprint relation is not
// enabledness-preserving (a thread's final step can enable a CU's
// final release, or an append can create a delivery, with disjoint
// footprints), a candidate can fail to be enabled at frame i; the
// fallback schedules every enabled transition there, which is the
// always-sound Flanagan-Godefroid degenerate case. It is not rare: it
// fires on about a quarter of races (238,031 of 969,110 on
// ISA2+transitive/DH, 90,457 of 314,302 on IRIW+scoped/GH).
//
// Sleep sets are carried exactly as in the reference explorer: a child
// inherits the parent's sleep entries plus its already-explored
// siblings, filtered to those independent of the taken transition; a
// node whose enabled set is entirely asleep is a redundant prefix and
// is abandoned. The reported States metric counts frames visited
// (executed transitions plus the root), the stateless analogue of the
// reference explorer's expanded-node count.

// Dynamic-footprint territory bits. Slots 0..35 are (CU, word) pairs;
// above them one bit per thread's control state, per variable's home,
// and per CU's end-of-kernel control.
const (
	fpTctl = uint(maxCUs * maxVars) // 36..41: thread control
	fpHome = fpTctl + maxThreads    // 42..47: registry/L2 home
	fpCctl = fpHome + maxVars       // 48..53: per-CU final release
)

func slotBit(ci, v uint8) uint64 { return 1 << (uint(ci)*maxVars + uint(v)) }
func tctlBit(ti uint8) uint64    { return 1 << (fpTctl + uint(ti)) }
func homeBit(v uint8) uint64     { return 1 << (fpHome + uint(v)) }
func cctlBit(ci uint8) uint64    { return 1 << (fpCctl + uint(ci)) }

// cuSlots is every word slot of one CU — the footprint of transitions
// that read or sweep CU-wide word state.
func (m *model) cuSlots(ci uint8) uint64 {
	return ((1 << uint(m.nv)) - 1) << (uint(ci) * maxVars)
}

// touched names the variables and CUs whose state a transition with
// footprint fp can change: the variable and CU of each slot bit and the
// variable of each home bit. Transitions that read or sweep CU-wide
// state (release drain, acquire sweep, final release) carry every slot
// of their CU, so they name all of its variables. The explorer checks
// only these after the transition (checkInvariantsOver);
// TestFootprintCoversTransitionWrites checks that nothing outside them
// changes, the messages a transition sends included.
func (m *model) touched(fp uint64) (vm, cm uint8) {
	for ci := 0; ci < m.nc; ci++ {
		if row := uint8(fp>>(ci*maxVars)) & (1<<maxVars - 1); row != 0 {
			vm |= row
			cm |= 1 << ci
		}
	}
	return vm | uint8(fp>>fpHome)&(1<<maxVars-1), cm
}

// dynFootprint is the dynamic read/write territory of transition t at
// state s, used by the DPOR explorer and the split phase. It
// must be computed at the state where t is enabled; it stays valid
// while only transitions independent of t execute (anything that would
// change t's behavior shares a bit with t by construction).
func (m *model) dynFootprint(s *state, t trans) uint64 {
	kind, a, b, c := t.parts()
	switch kind {
	case tkStep:
		return m.stepFootprint(s, int(a))
	case tkFinalRel:
		// The end-of-kernel release drains the store buffer and the
		// lazy/dirty masks: CU-wide.
		return cctlBit(a) | m.cuSlots(a)
	case tkEvict, tkFlushDirty, tkWriteBack, tkLazyKick:
		return slotBit(a, c)
	case tkDeliver:
		return m.deliverFootprint(s, a, b, c)
	}
	return ^uint64(0)
}

func (m *model) stepFootprint(s *state, ti int) uint64 {
	fp := tctlBit(uint8(ti))
	op := m.opOf(ti, s)
	v := uint8(op.Var)
	ci := m.threadCU[ti]
	if op.Kind == litmus.OpLoad || op.Kind == litmus.OpStore {
		return fp | slotBit(ci, v)
	}
	scope := m.cfg.model.Effective(op.Scope)
	releasing := (op.Kind == litmus.OpSyncStore || op.Kind == litmus.OpSyncAdd) &&
		scope == coherence.ScopeGlobal
	if releasing && s.relIssued&(1<<ti) == 0 {
		// Release phase 1: the drain reads the whole store buffer (and
		// the lazy/dirty masks), so it conflicts with every word of the
		// CU — a concurrent same-CU store must not slip under the drain.
		return fp | m.cuSlots(ci)
	}
	fp |= slotBit(ci, v)
	acquiring := (op.Kind == litmus.OpSyncLoad || op.Kind == litmus.OpSyncAdd) &&
		scope == coherence.ScopeGlobal
	if m.cfg.proto == protoDeNovo && acquiring && s.cus[ci].st[v] == wReg {
		// The sync hits the registered word in place, so the acquire
		// sweep (every clean word invalidated, own in-flight fills marked
		// stale) fires at this step.
		fp |= m.cuSlots(ci)
	}
	return fp
}

func (m *model) deliverFootprint(s *state, src, dst, v uint8) uint64 {
	if dst == home {
		return homeBit(v)
	}
	fp := slotBit(dst, v)
	idx := s.head(src, dst, v)
	if idx < 0 {
		return fp // unreachable: delivery is only enabled on a nonempty channel
	}
	g := &s.msgs[idx]
	switch g.kind {
	case mReadResp:
		fp |= tctlBit(g.thread)
	case mAtomicResp:
		fp |= tctlBit(g.thread)
		op := m.opOf(int(g.thread), s)
		if op.Kind == litmus.OpSyncLoad || op.Kind == litmus.OpSyncAdd {
			fp |= m.cuSlots(dst) // the acquire sweep fires at delivery
		}
	case mRegAck, mRegXfer:
		cu := &s.cus[dst]
		for i := uint8(0); i < cu.syncQLen[v]; i++ {
			ti := int(cu.syncQ[v][i])
			fp |= tctlBit(uint8(ti))
			op := m.opOf(ti, s)
			if (op.Kind == litmus.OpSyncLoad || op.Kind == litmus.OpSyncAdd) &&
				m.cfg.model.Effective(op.Scope) == coherence.ScopeGlobal {
				fp |= m.cuSlots(dst) // a queued acquire sweeps at arrival
			}
		}
	}
	return fp
}

// sleepEnt is one sleep-set member with its precomputed footprint.
type sleepEnt struct {
	t  trans
	fp uint64
}

func sleepHas(sleep []sleepEnt, t trans) bool {
	for _, u := range sleep {
		if u.t == t {
			return true
		}
	}
	return false
}

// event is one executed transition of the current execution and its
// dynamic footprint.
type event struct {
	t  trans
	fp uint64
}

// dframe is one depth of the DPOR stack: the state reached and the
// node's exploration bookkeeping. A frame's state buffer and slices
// belong to its depth for the explorer's lifetime: popping a frame
// leaves them in the stack's backing array, and the next frame pushed
// at that depth overwrites them in place (see push).
type dframe struct {
	s *state

	visited bool
	enab    []trans
	enabFp  []uint64 // the explored transitions' footprints, taken when explored
	back    []bool   // scheduled for exploration (the backtrack set)
	done    []bool   // explored
	sleep   []sleepEnt
}

// explorer is one worker's DPOR stack: the frames, the executed events
// indexed by event index (event i is the transition into frame i+1),
// and the happens-before bitsets over those indices. It is reused
// across the units a worker runs and, through the stacks pool, across
// Check calls, so a node costs no allocation once the stack has grown
// to the exploration's depth.
type explorer struct {
	frames []dframe
	ev     []event

	// Bitsets over event indices, nw words each: clocks holds event i's
	// happens-before predecessors at clocks[i*nw:], byBit the events
	// whose footprint holds bit b at byBit[b*nw:]. Entries of events
	// above the current depth are stale; readers mask them off.
	nw     int
	clocks []uint64
	byBit  []uint64

	deps, notdep []uint64 // racesOnAppend/reverseRace scratch, nw words

	// nc and nt are the CU and thread counts of the model the depth
	// buffers last held. Every buffer is zero past them: push copies a
	// state's first nc CUs and nt threads' loads only, so a model of
	// another shape must clear the tails first (fitShape).
	nc, nt int

	// afterApply, when set, sees every transition t the explorer takes,
	// with its footprint ft, the parent state and the child state t
	// produced. Tests use it to inspect or corrupt the child before the
	// explorer visits it.
	afterApply func(parent, child *state, t trans, ft uint64)

	// seen maps every outcome this explorer reached in the current
	// Check to the lowest unit that reached it (the split phase is
	// unit -1). A worker runs its units in increasing order, so the
	// first unit to record an outcome is the lowest.
	seen map[outKey]seenOutcome

	// Split-phase buffers.
	replay state
	enab   []trans
}

type seenOutcome struct {
	unit int
	key  string
	o    litmus.Outcome
}

// stacks recycles explorers across Check calls. Nothing depends on a
// hit: a fresh explorer allocates only as its stack first grows.
var stacks = sync.Pool{New: func() any { return new(explorer) }}

func getExplorer() *explorer {
	x := stacks.Get().(*explorer)
	if x.seen == nil {
		x.seen = make(map[outKey]seenOutcome)
	}
	clear(x.seen)
	return x
}

// errStop is how an exploration reports that its ledger granted no
// more nodes: the budget is exhausted or the unit is no longer needed.
var errStop = errors.New("mcheck: exploration stopped by its ledger")

// falses returns b resliced to n elements, all false, reusing its
// backing array when it is large enough.
func falses(b []bool, n int) []bool {
	b = slices.Grow(b[:0], n)[:n]
	clear(b)
	return b
}

// explore runs stateless source-DPOR over one unit: replay prefix from
// the root (uncounted: the split phase counted it), then explore below
// the cut, taking node grants from l as unit j. It returns the nodes
// visited below the cut and the first violation in deterministic DFS
// order; errStop when l grants no more nodes.
func (x *explorer) explore(m *model, oracle map[string]litmus.Outcome, u *splitNode, j int, l *ledger) (int, *Violation, error) {
	states, limit := 0, 0
	cut := len(u.prefix)

	x.fitShape(m)
	x.frames = slices.Grow(x.frames[:0], 1)[:1]
	root := &x.frames[0]
	if root.s == nil {
		root.s = new(state)
	}
	m.reset(root.s)
	root.visited, root.sleep = false, root.sleep[:0]

	// violation builds the counterexample from the live stack: the
	// events 0..top-1 are the execution that reached it.
	violation := func(name, detail string, obs *litmus.Outcome) *Violation {
		ts := make([]trans, len(x.frames)-1)
		for i := range ts {
			ts[i] = x.ev[i].t
		}
		return &Violation{
			Invariant: name,
			Detail:    detail,
			Config:    m.mcfg,
			Program:   m.p,
			Observed:  obs,
			Trace:     m.labels(ts),
		}
	}

	for len(x.frames) > 0 {
		d := len(x.frames) - 1
		fr := &x.frames[d]

		if !fr.visited {
			fr.visited = true
			s := fr.s
			if d >= cut {
				if states >= limit {
					if limit = l.grant(j, states); states >= limit {
						return states, nil, errStop
					}
				}
				states++
			}
			if s.viol != "" {
				return states, violation(s.viol, s.violDetail, nil), nil
			}
			// The root and terminal states take the full invariant suite;
			// any other state differs from its parent, which held every
			// invariant, only where its transition's footprint says, so
			// only those variables and CUs are checked again.
			done := m.allOpsDone(s)
			term := m.terminal(s, done)
			var name, detail string
			if d == 0 || term {
				name, detail = m.checkInvariants(s)
			} else {
				vm, cm := m.touched(x.ev[d-1].fp)
				name, detail = m.checkInvariantsOver(s, vm, cm)
			}
			if name != "" {
				return states, violation(name, detail, nil), nil
			}
			if term {
				key, ok := m.outcomeKey(s)
				if !ok {
					return states, violation(s.viol, s.violDetail, nil), nil
				}
				if _, dup := x.seen[key]; !dup {
					o := m.outcomeOf(&key)
					k := o.Key()
					if _, permitted := oracle[k]; !permitted {
						return states, violation("oracle-conformance",
							fmt.Sprintf("reachable outcome %s is not permitted by the %v oracle", k, m.cfg.model),
							&o), nil
					}
					x.seen[key] = seenOutcome{j, k, o}
				}
				x.frames = x.frames[:d]
				continue
			}
			fr.enab = m.enabledInto(fr.enab, s, done)
			if len(fr.enab) == 0 {
				return states, violation("deadlock",
					"no transition enabled in a non-terminal state (lost wakeup or stranded request)",
					nil), nil
			}
			fr.enabFp = slices.Grow(fr.enabFp[:0], len(fr.enab))[:len(fr.enab)]
			fr.back = falses(fr.back, len(fr.enab))
			fr.done = falses(fr.done, len(fr.enab))
			switch {
			case d < cut:
				// Prefix replay: the split phase already branched here; take
				// exactly the unit's transition.
				idx := slices.Index(fr.enab, u.prefix[d])
				if idx < 0 {
					return states, nil, fmt.Errorf(
						"mcheck: split prefix transition %#x not enabled at depth %d of %q under %s",
						uint32(u.prefix[d]), d, m.p.Name, m.mcfg.Name())
				}
				fr.back[idx] = true
			default:
				if d == cut {
					// The cut frame inherits the unit's sleep set in place of
					// the (empty) one the prefix replay carried down.
					fr.sleep = fr.sleep[:0]
					for _, e := range u.sleep {
						fr.sleep = append(fr.sleep, sleepEnt{e.t, m.dynFootprint(s, e.t)})
					}
				}
				seeded := false
				for i, t := range fr.enab {
					if !sleepHas(fr.sleep, t) {
						fr.back[i] = true
						seeded = true
						break
					}
				}
				if !seeded {
					// Sleep-blocked: every enabled transition is covered by a
					// sibling exploration. Redundant prefix; abandon.
					x.frames = x.frames[:d]
					continue
				}
			}
		}

		// Pick the lowest-ordered scheduled, unexplored, awake transition.
		sel := -1
		for i := range fr.enab {
			if fr.back[i] && !fr.done[i] && !sleepHas(fr.sleep, fr.enab[i]) {
				sel = i
				break
			}
		}
		if sel < 0 {
			x.frames = x.frames[:d]
			continue
		}
		fr.done[sel] = true
		x.push(m, sel, cut)
	}
	return states, nil, nil
}

// push executes the top frame's transition sel into the next depth's
// reused buffers (see dframe) and makes the child the top frame. It
// allocates only the first time a depth is reached or when a buffer
// must grow.
func (x *explorer) push(m *model, sel, cut int) {
	d := len(x.frames) - 1 // the new event's index
	x.frames = slices.Grow(x.frames, 1)[:d+2]
	fr, ch := &x.frames[d], &x.frames[d+1]
	t := fr.enab[sel]
	ft := m.dynFootprint(fr.s, t)
	fr.enabFp[sel] = ft
	if ch.s == nil {
		// First time at this depth: size its buffers like the parent's,
		// which have already grown to a working size.
		n := cap(fr.enab)
		ch.s = &state{msgs: make([]msg, 0, cap(fr.s.msgs))}
		ch.enab, ch.enabFp = make([]trans, 0, n), make([]uint64, 0, n)
		ch.back, ch.done = make([]bool, 0, n), make([]bool, 0, n)
		ch.sleep = make([]sleepEnt, 0, n)
	}

	x.appendEvent(d, t, ft, cut)

	// Child sleep: inherited entries and already-explored siblings,
	// filtered to those independent of the taken transition.
	ch.sleep = ch.sleep[:0]
	for _, u := range fr.sleep {
		if independent(u.fp, ft) {
			ch.sleep = append(ch.sleep, u)
		}
	}
	for i := range fr.enab {
		if fr.done[i] && i != sel && independent(fr.enabFp[i], ft) {
			ch.sleep = append(ch.sleep, sleepEnt{fr.enab[i], fr.enabFp[i]})
		}
	}

	ch.s.copyFrom(fr.s, m.nc, m.nt)
	m.apply(ch.s, t)
	if x.afterApply != nil {
		x.afterApply(fr.s, ch.s, t, ft)
	}
	ch.visited = false
}

// fitShape readies the depth buffers for m: when m's CU or thread
// count differs from the last model's, it clears every buffer's CUs and
// loads past m's, which a wider program may have left behind and push
// no longer overwrites. They would otherwise leak into outcome keys.
func (x *explorer) fitShape(m *model) {
	if x.nc == m.nc && x.nt == m.nt {
		return
	}
	for _, fr := range x.frames[:cap(x.frames)] {
		if fr.s != nil {
			clear(fr.s.cus[m.nc:])
			clear(fr.s.loads[m.nt:])
		}
	}
	x.nc, x.nt = m.nc, m.nt
}

// appendEvent records event n (transition t, footprint ft), computing
// its clock and scheduling a reversal for every race it closes.
func (x *explorer) appendEvent(n int, t trans, ft uint64, cut int) {
	if n >= 64*x.nw {
		x.widen()
	}
	nw, w, bit := x.nw, n>>6, uint64(1)<<(n&63)
	if n < len(x.ev) {
		// Drop the stale event n from the footprint-bit sets.
		for f := x.ev[n].fp; f != 0; f &= f - 1 {
			x.byBit[bits.TrailingZeros64(f)*nw+w] &^= bit
		}
		x.ev[n] = event{t, ft}
	} else {
		x.ev = append(x.ev, event{t, ft})
		x.clocks = append(x.clocks, make([]uint64, nw)...)
	}
	x.racesOnAppend(n, t, ft, cut)
	for f := ft; f != 0; f &= f - 1 {
		x.byBit[bits.TrailingZeros64(f)*nw+w] |= bit
	}
}

// widen adds a word to every event bitset, for executions deeper than
// the current width.
func (x *explorer) widen() {
	nw := x.nw + 1
	regrid := func(old []uint64, rows int) []uint64 {
		b := make([]uint64, rows*nw)
		for r := 0; r < rows && x.nw > 0; r++ {
			copy(b[r*nw:], old[r*x.nw:][:x.nw])
		}
		return b
	}
	x.clocks = regrid(x.clocks, len(x.ev))
	x.byBit = regrid(x.byBit, 64)
	x.deps, x.notdep = make([]uint64, nw), make([]uint64, nw)
	x.nw = nw
}

// clock is event i's happens-before predecessor set.
func (x *explorer) clock(i int) []uint64 { return x.clocks[i*x.nw:][:x.nw] }

// racesOnAppend builds the clock of new event n into place. Its
// dependent predecessors are the union of the per-footprint-bit event
// sets; walking them in descending order, one not yet covered is a
// race, and each merges its clock into the covered set, which ends as
// the new event's clock. Races whose frame lies inside a unit's
// replayed prefix are skipped: the split phase branched every
// top-region node fully, so the reversed order lives in a sibling
// unit.
func (x *explorer) racesOnAppend(n int, tn trans, ftn uint64, cut int) {
	nw := x.nw
	deps := x.deps
	clear(deps)
	for f := ftn; f != 0; f &= f - 1 {
		for k, e := range x.byBit[bits.TrailingZeros64(f)*nw:][:nw] {
			deps[k] |= e
		}
	}
	top := n >> 6
	deps[top] &= 1<<(n&63) - 1 // events at n and above are stale
	clear(deps[top+1:])

	covered := x.clock(n)
	clear(covered)
	for w := top; w >= 0; w-- {
		for {
			live := deps[w] &^ covered[w]
			if live == 0 {
				break
			}
			i := w<<6 | (63 - bits.LeadingZeros64(live))
			if i >= cut {
				x.reverseRace(i, n, tn, covered)
			}
			covered[w] |= 1 << (i & 63)
			for k, c := range x.clock(i)[:w+1] {
				covered[k] |= c
			}
		}
	}
}

// reverseRace schedules, at frame i, an alternative exploration that
// runs the new event n's side of the race (i, n) first: one initial of
// v = notdep(i, E)·t_n, unless an initial is already scheduled there.
// covered holds the events between i and n that happen-before n.
func (x *explorer) reverseRace(i, n int, tn trans, covered []uint64) {
	fr := &x.frames[i]
	nw := x.nw

	// Walk notdep — the events after i that do not happen-after event i
	// — in execution order, building it as it goes. An event of it is an
	// initial of v when none of its happens-before predecessors is in
	// notdep; they all precede it, so the part built so far decides.
	// An initial already scheduled at frame i covers this race: stop
	// there. Otherwise remember the first initial enabled at frame i.
	notdep := x.notdep
	clear(notdep)
	iw, ib := i>>6, uint64(1)<<(i&63)
	first := -1
	consider := func(q trans) bool {
		if idx := slices.Index(fr.enab, q); idx >= 0 {
			if fr.back[idx] {
				return true
			}
			if first < 0 {
				first = idx
			}
		}
		return false
	}
	for j := i + 1; j < n; j++ {
		if x.clocks[j*nw+iw]&ib != 0 {
			continue
		}
		initial := !intersects(x.clock(j), notdep)
		notdep[j>>6] |= 1 << (j & 63)
		if initial && consider(x.ev[j].t) {
			return
		}
	}
	// The new event is an initial when nothing in notdep happens-before
	// it.
	if !intersects(covered, notdep) && consider(tn) {
		return
	}

	// Schedule the first initial that is enabled at frame i. When none
	// is (the footprint relation is not enabledness-preserving: an
	// event of v may only become enabled partway through it), fall back
	// to scheduling every enabled transition — the always-sound
	// Flanagan-Godefroid degenerate case.
	if first >= 0 {
		fr.back[first] = true
		return
	}
	for idx := range fr.back {
		fr.back[idx] = true
	}
}

func intersects(a, b []uint64) bool {
	for k := range a {
		if a[k]&b[k] != 0 {
			return true
		}
	}
	return false
}
