package litmus

import (
	"fmt"
	"sort"
	"strings"

	"denovogpu/internal/coherence"
	"denovogpu/internal/consistency"
)

// The oracle is an operational abstract machine that soundly
// over-approximates every configuration implementing a given
// consistency model. Its state is the global memory (the L2/registry
// view) plus one view per CU: a set of per-variable entries that are
// either dirty (a write buffered in the CU — store buffer, dirty L1
// word, or unregistered ownership — not yet globally visible) or clean
// (a cached copy that may be stale). Nondeterministic background
// transitions flush a dirty entry to memory or evict a clean one at any
// time, which covers writethroughs, eager DeNovo registration (a
// registered word is globally readable through the registry, which is
// the same as having been flushed), writebacks, and capacity evictions.
//
// Operation semantics (thread t on CU c, model m):
//
//   - plain load: return c's entry if present, else memory (and cache
//     it clean). A CU always sees its own buffered writes (store-buffer
//     forwarding), so an entry, once present, is what a load returns;
//     staleness arises from eviction and re-fetch, which the background
//     transitions provide.
//   - plain store: set a dirty entry (write coalescing in the buffer).
//   - global sync read (acquire): read memory directly; then drop all
//     of c's clean entries (self-invalidation). Dirty entries survive —
//     they are this CU's own writes.
//   - global sync write (release): enabled only when c has no dirty
//     entries (the release fence: all program-order-earlier writes must
//     be globally visible first); then RMW memory.
//   - global sync RMW: both of the above.
//   - local sync (HRF only): operates on c's view alone — read the
//     entry (or memory on a miss) and leave any written value dirty.
//     No fence, no invalidation: local synchronization orders only the
//     blocks sharing the L1, which is automatic in a shared view.
//
// Under DRF every scope is treated as global (consistency.Model's
// Effective), which is the entire difference between the two models —
// the paper's point, in executable form.
//
// The oracle explores every interleaving of thread steps and background
// transitions from this machine, accumulating the outcomes (recorded
// values + final memory after a terminal flush of all dirty entries,
// which models the kernel-boundary release). An implementation outcome
// outside this set is a consistency violation. The approximation is
// one-directional by design: the oracle may permit outcomes a
// particular configuration never exhibits (a protocol may be stronger
// than its model requires), but must permit everything any conforming
// configuration can produce.

// viewEntry is one CU's copy of a variable.
type viewEntry struct {
	val   uint32
	dirty bool
}

// oracleState is one node of the exploration graph.
type oracleState struct {
	mem   []uint32
	views []map[int]viewEntry // indexed by CU slot (dense, per program)
	pcs   []int
	loads [][]uint32
}

func (s *oracleState) clone() *oracleState {
	c := &oracleState{
		mem:   append([]uint32(nil), s.mem...),
		views: make([]map[int]viewEntry, len(s.views)),
		pcs:   append([]int(nil), s.pcs...),
		loads: make([][]uint32, len(s.loads)),
	}
	for i, v := range s.views {
		nv := make(map[int]viewEntry, len(v))
		for k, e := range v {
			nv[k] = e
		}
		c.views[i] = nv
	}
	for i, l := range s.loads {
		c.loads[i] = append([]uint32(nil), l...)
	}
	return c
}

// key canonicalizes the state for memoization.
func (s *oracleState) key() string {
	var b strings.Builder
	for _, v := range s.mem {
		fmt.Fprintf(&b, "%d,", v)
	}
	b.WriteByte('#')
	for _, view := range s.views {
		vars := make([]int, 0, len(view))
		for k := range view {
			vars = append(vars, k)
		}
		sort.Ints(vars)
		for _, k := range vars {
			e := view[k]
			d := 0
			if e.dirty {
				d = 1
			}
			fmt.Fprintf(&b, "%d:%d:%d,", k, e.val, d)
		}
		b.WriteByte(';')
	}
	b.WriteByte('#')
	for _, p := range s.pcs {
		fmt.Fprintf(&b, "%d,", p)
	}
	b.WriteByte('#')
	for _, l := range s.loads {
		for _, v := range l {
			fmt.Fprintf(&b, "%d,", v)
		}
		b.WriteByte(';')
	}
	return b.String()
}

// DefaultOracleStateLimit bounds the oracle's exploration; programs
// exceeding it are rejected (the generator keeps programs far below it).
const DefaultOracleStateLimit = 400_000

// StateLimitError reports that the oracle's exploration hit its state
// limit before the permitted-outcome set was complete. It is a budget
// exhaustion, not a consistency violation: callers that hunt for
// violations (the fuzzer, the model checker) must detect it with
// errors.As and treat the program as unverifiable — an incomplete
// outcome set would otherwise turn every unexplored-but-legal outcome
// into a false alarm.
type StateLimitError struct {
	// Limit is the state budget that was exceeded.
	Limit int
	// Program names the program whose exploration blew up.
	Program string
}

func (e *StateLimitError) Error() string {
	return fmt.Sprintf("litmus: oracle state limit %d exceeded for %q", e.Limit, e.Program)
}

// Oracle enumerates the set of outcomes the given consistency model
// permits for the program, keyed by Outcome.Key. It errors if the
// program is invalid or exploration exceeds stateLimit states
// (stateLimit <= 0 uses DefaultOracleStateLimit).
func Oracle(p *Program, model consistency.Model, stateLimit int) (map[string]Outcome, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if stateLimit <= 0 {
		stateLimit = DefaultOracleStateLimit
	}
	// Dense CU indexing: map program CU ids to view slots.
	cuSlot := make(map[int]int)
	threadCU := make([]int, len(p.Threads))
	for i, t := range p.Threads {
		if _, ok := cuSlot[t.CU]; !ok {
			cuSlot[t.CU] = len(cuSlot)
		}
		threadCU[i] = cuSlot[t.CU]
	}

	init := &oracleState{
		mem:   make([]uint32, len(p.Vars)),
		views: make([]map[int]viewEntry, len(cuSlot)),
		pcs:   make([]int, len(p.Threads)),
		loads: make([][]uint32, len(p.Threads)),
	}
	for i := range init.views {
		init.views[i] = make(map[int]viewEntry)
	}

	outcomes := make(map[string]Outcome)
	visited := make(map[string]bool)
	stack := []*oracleState{init}
	visited[init.key()] = true

	push := func(s *oracleState) error {
		k := s.key()
		if visited[k] {
			return nil
		}
		if len(visited) >= stateLimit {
			return &StateLimitError{Limit: stateLimit, Program: p.Name}
		}
		visited[k] = true
		stack = append(stack, s)
		return nil
	}

	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		done := true
		for ti := range p.Threads {
			if s.pcs[ti] < len(p.Threads[ti].Ops) {
				done = false
			}
		}

		anyDirty := false
		// Background transitions: flush any dirty entry, evict any clean
		// one. (Eviction after all threads finish cannot change the
		// outcome, so it is skipped there.)
		for ci, view := range s.views {
			for vi, e := range view {
				if e.dirty {
					anyDirty = true
					n := s.clone()
					n.mem[vi] = e.val
					n.views[ci][vi] = viewEntry{val: e.val}
					if err := push(n); err != nil {
						return nil, err
					}
				} else if !done {
					n := s.clone()
					delete(n.views[ci], vi)
					if err := push(n); err != nil {
						return nil, err
					}
				}
			}
		}

		if done {
			if !anyDirty {
				o := Outcome{Loads: s.loads, Final: s.mem}
				outcomes[o.Key()] = o
			}
			continue
		}

		// Thread steps.
		for ti, t := range p.Threads {
			pc := s.pcs[ti]
			if pc >= len(t.Ops) {
				continue
			}
			op := t.Ops[pc]
			ci := threadCU[ti]
			scope := model.Effective(op.Scope)

			if op.Kind.IsSync() && scope == coherence.ScopeGlobal &&
				(op.Kind == OpSyncStore || op.Kind == OpSyncAdd) {
				// Release fence: every buffered write of this CU must be
				// globally visible before the sync write performs.
				blocked := false
				for _, e := range s.views[ci] {
					if e.dirty {
						blocked = true
						break
					}
				}
				if blocked {
					continue
				}
			}

			n := s.clone()
			n.pcs[ti]++
			view := n.views[ci]
			record := func(v uint32) { n.loads[ti] = append(n.loads[ti], v) }

			switch {
			case op.Kind == OpLoad:
				if e, ok := view[op.Var]; ok {
					record(e.val)
				} else {
					v := n.mem[op.Var]
					view[op.Var] = viewEntry{val: v}
					record(v)
				}
			case op.Kind == OpStore:
				view[op.Var] = viewEntry{val: op.Val, dirty: true}
			case scope == coherence.ScopeGlobal:
				// Global synchronization acts on memory directly.
				cur := n.mem[op.Var]
				switch op.Kind {
				case OpSyncLoad:
					record(cur)
				case OpSyncStore:
					n.mem[op.Var] = op.Val
				case OpSyncAdd:
					record(cur)
					n.mem[op.Var] = cur + op.Val
				}
				if op.Kind == OpSyncLoad || op.Kind == OpSyncAdd {
					// Acquire: self-invalidate clean entries.
					for vi, e := range view {
						if !e.dirty {
							delete(view, vi)
						}
					}
				}
			default:
				// Local synchronization (HRF): the CU's view only.
				cur, ok := view[op.Var]
				if !ok {
					cur = viewEntry{val: n.mem[op.Var]}
				}
				switch op.Kind {
				case OpSyncLoad:
					record(cur.val)
					if !ok {
						view[op.Var] = cur
					}
				case OpSyncStore:
					view[op.Var] = viewEntry{val: op.Val, dirty: true}
				case OpSyncAdd:
					record(cur.val)
					view[op.Var] = viewEntry{val: cur.val + op.Val, dirty: true}
				}
			}
			if err := push(n); err != nil {
				return nil, err
			}
		}
	}
	return outcomes, nil
}
