package mcheck

import (
	"fmt"
	"slices"
	"time"

	"denovogpu/internal/coherence"
	"denovogpu/internal/litmus"
)

// Stateless source-DPOR exploration (Abdulla, Aronis, Jonsson,
// Sagonas: "Source Sets: A Foundation for Optimal Dynamic Partial
// Order Reduction", adapted to this transition system). Where the
// legacy explorer (explore.go) prunes with a visited table keyed by a
// canonical state encoding — memory proportional to the number of
// distinct states — this explorer keeps only the current execution: a
// stack of frames, one per depth, each holding the state reached, the
// happens-before clock of its incoming event, and the backtrack/sleep
// bookkeeping of the node. Peak memory is O(depth), independent of how
// many states the search visits, which is what lets the budget rise
// from state-table scale (~2M) to tens of millions.
//
// The stack also makes a node cost no allocation. Each depth owns one
// state buffer and one set of frame slices for the whole exploration:
// a child state is the parent's copied into its depth's buffer and
// advanced in place, and a frame pushed where an earlier one was popped
// reuses that frame's slices. A depth's state is therefore valid only
// while its frame is on the stack. Nothing is named per node either:
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
// legacy explorer's static one. The legacy relation is per-CU: any two
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
// sleep-set explorers.
//
// Happens-before is the transitive closure of the footprint-dependency
// order within one execution: event i happens-before event n iff i < n
// and a chain of pairwise-dependent events connects them. Each event
// carries a clock — the bitset of its happens-before predecessors —
// computed incrementally when the event is appended: scanning
// backwards from the new event, a dependent earlier event i that is
// not already covered by the clocks merged so far is a *race* (nothing
// between them is ordered after i and before the new event, so the
// two are adjacent in the happens-before order and their order could
// be reversed); dependent events merge their clocks into the covered
// set either way, which makes the test exact.
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
// always-sound Flanagan-Godefroid degenerate case and is rare in
// practice.
//
// Sleep sets are carried exactly as in the legacy explorer: a child
// inherits the parent's sleep entries plus its already-explored
// siblings, filtered to those independent of the taken transition; a
// node whose enabled set is entirely asleep is a redundant prefix and
// is abandoned. The reported States metric counts frames visited
// (executed transitions plus the root), the stateless analogue of the
// legacy explorer's expanded-node count.

// ebits is a growable bitset over event indices (execution depths).
type ebits []uint64

func (b ebits) test(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

func (b *ebits) set(i int) {
	w := i >> 6
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(i) & 63)
}

func (b *ebits) or(o ebits) {
	for len(*b) < len(o) {
		*b = append(*b, 0)
	}
	for i, w := range o {
		(*b)[i] |= w
	}
}

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

// dynFootprint is the dynamic read/write territory of transition t at
// state s, used by the DPOR explorer and the shard split phase. It
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

// Unit is one shard of an exploration: replay Prefix from the root
// (transition values, outermost first), then run source-DPOR below the
// cut with Sleep as the cut frame's inherited sleep set. The zero Unit
// is the whole exploration. Units come from Split; their fields are
// wire-friendly (uint32 transition values) so a shard can be shipped
// to a remote worker and replayed there deterministically.
type Unit struct {
	Prefix []uint32 `json:"prefix,omitempty"`
	Sleep  []uint32 `json:"sleep,omitempty"`
}

// dframe is one depth of the DPOR stack: the state reached, the
// incoming event's identity/footprint/clock (meaningless at the root),
// and the node's exploration bookkeeping. A frame's state buffer and
// slices belong to its depth for the whole exploration: popping a frame
// leaves them in the stack's backing array, and the next frame pushed
// at that depth overwrites them in place (see push).
type dframe struct {
	s *state

	t     trans  // incoming transition (event index = depth-1)
	fp    uint64 // its footprint
	clock ebits  // its happens-before predecessors

	visited bool
	enab    []trans
	enabFp  []uint64
	back    []bool // scheduled for exploration (the backtrack set)
	done    []bool // explored
	sleep   []sleepEnt
}

// dporScratch holds reverseRace's working sets, reused across calls.
type dporScratch struct {
	notdep   []int
	initials []trans
}

// falses returns b resliced to n elements, all false, reusing its
// backing array when it is large enough.
func falses(b []bool, n int) []bool {
	b = slices.Grow(b[:0], n)[:n]
	clear(b)
	return b
}

// exploreDPOR runs stateless source-DPOR over unit. It returns frames
// visited below the cut (the prefix was counted once by the split
// phase), terminal outcomes, and the first violation in deterministic
// DFS order, or a *BudgetError carrying progress at exhaustion.
func (m *model) exploreDPOR(oracle map[string]litmus.Outcome, budget int, unit Unit) (int, map[string]litmus.Outcome, *Violation, error) {
	outcomes := make(map[string]litmus.Outcome)
	seen := make(map[outKey]struct{}) // outcomes already checked and recorded
	states := 0
	start := time.Now()
	cut := len(unit.Prefix)
	var sc dporScratch

	stack := make([]dframe, 1, 64)
	stack[0] = dframe{s: m.initial()}

	// violation builds the counterexample from the live stack: the
	// transitions of frames 1..top are the execution that reached it.
	violation := func(name, detail string, obs *litmus.Outcome) *Violation {
		ts := make([]trans, len(stack)-1)
		for i := range ts {
			ts[i] = stack[i+1].t
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

	for len(stack) > 0 {
		d := len(stack) - 1
		fr := &stack[d]

		if !fr.visited {
			fr.visited = true
			s := fr.s
			if d >= cut {
				if states >= budget {
					return states, outcomes, nil, &BudgetError{
						Budget: budget, Config: m.mcfg.Name(), Program: m.p.Name,
						States: states, Elapsed: time.Since(start),
					}
				}
				states++
			}
			if s.viol != "" {
				return states, outcomes, violation(s.viol, s.violDetail, nil), nil
			}
			if name, detail := m.checkInvariants(s); name != "" {
				return states, outcomes, violation(name, detail, nil), nil
			}
			if m.terminal(s) {
				key, ok := m.outcomeKey(s)
				if !ok {
					return states, outcomes, violation(s.viol, s.violDetail, nil), nil
				}
				if _, dup := seen[key]; !dup {
					o := m.outcomeOf(&key)
					k := o.Key()
					if _, permitted := oracle[k]; !permitted {
						return states, outcomes, violation("oracle-conformance",
							fmt.Sprintf("reachable outcome %s is not permitted by the %v oracle", k, m.cfg.model),
							&o), nil
					}
					outcomes[k] = o
					seen[key] = struct{}{}
				}
				stack = stack[:d]
				continue
			}
			fr.enab = m.enabledInto(fr.enab, s)
			if len(fr.enab) == 0 {
				return states, outcomes, violation("deadlock",
					"no transition enabled in a non-terminal state (lost wakeup or stranded request)",
					nil), nil
			}
			fr.enabFp = fr.enabFp[:0]
			for _, t := range fr.enab {
				fr.enabFp = append(fr.enabFp, m.dynFootprint(s, t))
			}
			fr.back = falses(fr.back, len(fr.enab))
			fr.done = falses(fr.done, len(fr.enab))
			switch {
			case d < cut:
				// Prefix replay: the split phase already branched here; take
				// exactly the shard's transition.
				want := trans(unit.Prefix[d])
				found := false
				for i, t := range fr.enab {
					if t == want {
						fr.back[i] = true
						found = true
						break
					}
				}
				if !found {
					return states, outcomes, nil, fmt.Errorf(
						"mcheck: shard prefix transition %#x not enabled at depth %d of %q under %s (stale shard?)",
						unit.Prefix[d], d, m.p.Name, m.mcfg.Name())
				}
			default:
				if d == cut && len(unit.Sleep) > 0 {
					fr.sleep = fr.sleep[:0]
					for _, u := range unit.Sleep {
						fr.sleep = append(fr.sleep, sleepEnt{trans(u), m.dynFootprint(s, trans(u))})
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
					stack = stack[:d]
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
			stack = stack[:d]
			continue
		}
		fr.done[sel] = true
		stack = m.push(stack, sel, cut, &sc)
	}
	return states, outcomes, nil, nil
}

// push executes the top frame's transition sel into the next depth's
// reused buffers (see dframe) and returns the stack with the child on
// top. It allocates only the first time a depth is reached or when a
// buffer must grow.
func (m *model) push(stack []dframe, sel, cut int, sc *dporScratch) []dframe {
	d := len(stack) - 1
	stack = slices.Grow(stack, 1)
	fr, ch := &stack[d], &stack[:d+2][d+1]
	t, ft := fr.enab[sel], fr.enabFp[sel]
	if ch.s == nil {
		// First time at this depth: size its buffers like the parent's,
		// which have already grown to a working size.
		n := cap(fr.enab)
		ch.s = &state{msgs: make([]msg, 0, cap(fr.s.msgs))}
		ch.enab, ch.enabFp = make([]trans, 0, n), make([]uint64, 0, n)
		ch.back, ch.done = make([]bool, 0, n), make([]bool, 0, n)
		ch.sleep = make([]sleepEnt, 0, n)
	}

	// Race detection for the new event, and its clock.
	ch.clock = m.racesOnAppend(stack, t, ft, cut, ch.clock[:0], sc)

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

	ch.s.copyFrom(fr.s)
	m.apply(ch.s, t)
	ch.t, ch.fp, ch.visited = t, ft, false
	return stack[:d+2]
}

// racesOnAppend computes the happens-before clock of the event about
// to be appended (taken from the current top frame) into covered, and
// schedules a reversal for every race it closes. Scanning backwards,
// `covered` accumulates the clocks of dependent events: a dependent
// event not yet covered is adjacent to the new event in happens-before
// — a race. Races whose frame lies inside a shard's replayed prefix are
// skipped: the split phase branched every top-region node fully, so
// the reversed order lives in a sibling unit.
func (m *model) racesOnAppend(stack []dframe, tn trans, ftn uint64, cut int, covered ebits, sc *dporScratch) ebits {
	d := len(stack) - 1 // index of the new event
	for i := d - 1; i >= 0; i-- {
		ev := &stack[i+1] // event i
		if independent(ev.fp, ftn) {
			continue
		}
		if i >= cut && !covered.test(i) {
			m.reverseRace(stack, i, tn, covered, sc)
		}
		covered.set(i)
		covered.or(ev.clock)
	}
	return covered
}

// reverseRace schedules, at frame i, an alternative exploration that
// runs the new event's side of the race (i, new) first: one initial of
// v = notdep(i, E)·t_n, unless an initial is already scheduled there.
func (m *model) reverseRace(stack []dframe, i int, tn trans, covered ebits, sc *dporScratch) {
	d := len(stack) - 1
	fr := &stack[i]

	// notdep: events after i that do not happen-after event i.
	notdep := sc.notdep[:0]
	for j := i + 1; j < d; j++ {
		if !stack[j+1].clock.test(i) {
			notdep = append(notdep, j)
		}
	}
	sc.notdep = notdep

	// Initials of v: events with no happens-before predecessor inside
	// v. The new event qualifies when nothing in notdep happens-before
	// it — `covered` holds exactly the events that do.
	initials := sc.initials[:0]
	for a, j := range notdep {
		isInit := true
		for _, k := range notdep[:a] {
			if stack[j+1].clock.test(k) {
				isInit = false
				break
			}
		}
		if isInit {
			initials = append(initials, stack[j+1].t)
		}
	}
	tnInit := true
	for _, j := range notdep {
		if covered.test(j) {
			tnInit = false
			break
		}
	}
	if tnInit {
		initials = append(initials, tn)
	}
	sc.initials = initials

	// Source-set check: an initial already scheduled at frame i covers
	// this race.
	for idx, bt := range fr.back {
		if bt && slices.Contains(initials, fr.enab[idx]) {
			return
		}
	}

	// Schedule the first initial that is enabled at frame i. When none
	// is (the footprint relation is not enabledness-preserving: an
	// event of v may only become enabled partway through it), fall back
	// to scheduling every enabled transition — the always-sound
	// Flanagan-Godefroid degenerate case.
	for _, q := range initials {
		if idx := slices.Index(fr.enab, q); idx >= 0 {
			fr.back[idx] = true
			return
		}
	}
	for idx := range fr.back {
		fr.back[idx] = true
	}
}
