package mcheck

import (
	"fmt"
	"math/bits"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"denovogpu/internal/litmus"
	"denovogpu/internal/machine"
)

// The walls of the incremental invariant check. The explorer checks a
// non-root, non-terminal state only over the variables and CUs its
// transition's footprint names (model.touched). That is exact if the
// parent held every invariant and the transition changed nothing
// outside them: TestFootprintCoversTransitionWrites checks the premise,
// TestIncrementalInvariantsMatchFull the check itself.

// heavyPrograms are the catalog programs whose DeNovo cells run to
// millions of DPOR nodes; the plain test run leaves those cells out.
var heavyPrograms = map[string]bool{"IRIW+sync": true, "IRIW+scoped": true, "ISA2+transitive": true}

type cell struct {
	cfg machine.Config
	p   *litmus.Program
}

func (c cell) String() string { return c.cfg.Name() + "/" + c.p.Name }

// lightCells are the catalog cells under every configuration but the
// heavy programs' DeNovo cells, or all 72 cells when all is set.
func lightCells(all bool) []cell {
	var cells []cell
	for _, cfg := range Configs() {
		for _, e := range litmus.Catalog() {
			if all || !heavyPrograms[e.Program.Name] || cfg.Protocol != machine.ProtoDeNovo {
				cells = append(cells, cell{cfg, e.Program})
			}
		}
	}
	return cells
}

// exploreWith runs one explorer over c's whole tree (no split) with
// hook seeing every transition, and returns what explore returns. A
// cell that exceeds budget stops with errStop.
func exploreWith(t testing.TB, c cell, budget int, hook func(x *explorer, m *model, parent, child *state, tr trans, ft uint64)) (int, *Violation, error) {
	t.Helper()
	m, oracle, err := prepare(c.cfg, c.p, Options{})
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	x := &explorer{seen: make(map[outKey]seenOutcome)}
	x.afterApply = func(parent, child *state, tr trans, ft uint64) { hook(x, m, parent, child, tr, ft) }
	return x.explore(m, oracle, &splitNode{}, 0, newLedger(budget, 0, 1))
}

// projectionDiff names the first part of variable v's projection in
// which a and b differ — every CU's word state for v, its store-buffer
// slot and mask bits, memory, the owner, and the messages about v — or
// returns "".
func projectionDiff(m *model, a, b *state, v uint8) string {
	if a.mem[v] != b.mem[v] || a.owner[v] != b.owner[v] {
		return "memory or owner"
	}
	bit := uint8(1) << v
	for ci := 0; ci < m.nc; ci++ {
		ca, cb := &a.cus[ci], &b.cus[ci]
		sa, oka := ca.sbLookup(v)
		sb, okb := cb.sbLookup(v)
		masks := ca.lazy ^ cb.lazy | ca.regIn ^ cb.regIn | ca.vPresent ^ cb.vPresent |
			ca.vServed ^ cb.vServed | ca.vRejected ^ cb.vRejected
		switch {
		case ca.st[v] != cb.st[v] || ca.val[v] != cb.val[v]:
			return fmt.Sprintf("cu%d word", ci)
		case sa != sb || oka != okb:
			return fmt.Sprintf("cu%d store-buffer slot", ci)
		case masks&bit != 0:
			return fmt.Sprintf("cu%d lazy, registration or victim bit", ci)
		case ca.wtCnt[v] != cb.wtCnt[v] || ca.wtVal[v] != cb.wtVal[v]:
			return fmt.Sprintf("cu%d writethroughs", ci)
		case !slices.Equal(ca.syncQ[v][:ca.syncQLen[v]], cb.syncQ[v][:cb.syncQLen[v]]),
			ca.defFwd[v] != cb.defFwd[v],
			!slices.Equal(ca.defRead[v][:ca.defReadN[v]], cb.defRead[v][:cb.defReadN[v]]):
			return fmt.Sprintf("cu%d registration bookkeeping", ci)
		case ca.vVal[v] != cb.vVal[v]:
			return fmt.Sprintf("cu%d victim copy", ci)
		}
	}
	about := func(s *state) []msg {
		var out []msg
		for _, g := range s.msgs {
			if g.v == v {
				out = append(out, g)
			}
		}
		return out
	}
	if !slices.Equal(about(a), about(b)) {
		return "messages"
	}
	return ""
}

// cuDiff reports whether a and b differ on CU ci's store buffer (order
// included) or its lazy, registration and victim masks.
func cuDiff(a, b *state, ci int) bool {
	ca, cb := &a.cus[ci], &b.cus[ci]
	n := ca.sbLen
	return n != cb.sbLen ||
		!slices.Equal(ca.sbVar[:n], cb.sbVar[:n]) || !slices.Equal(ca.sbVal[:n], cb.sbVal[:n]) ||
		ca.lazy != cb.lazy || ca.regIn != cb.regIn ||
		ca.vPresent != cb.vPresent || ca.vServed != cb.vServed || ca.vRejected != cb.vRejected
}

// TestFootprintCoversTransitionWrites checks the premise of the
// incremental invariant check, and with it the dpor.go header's claim
// that sends need no footprint bit: at every node of the light catalog
// cells under every configuration, the child differs from its parent
// only on the variables and CUs its transition's footprint names. Under
// MCHECK_FULL=1 it covers all 72 cells; the heavy programs' DeNovo
// cells, which run to millions of nodes each, up to dporGapBudget nodes:
//
//	MCHECK_FULL=1 go test ./internal/mcheck -run TestFootprintCoversTransitionWrites
func TestFootprintCoversTransitionWrites(t *testing.T) {
	full := os.Getenv("MCHECK_FULL") == "1"
	for _, c := range lightCells(full) {
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			budget := DefaultBudget
			if heavyPrograms[c.p.Name] && c.cfg.Protocol == machine.ProtoDeNovo {
				budget = dporGapBudget
			}
			n, viol, err := exploreWith(t, c, budget, func(_ *explorer, m *model, parent, child *state, tr trans, ft uint64) {
				vm, cm := m.touched(ft)
				for v := uint8(0); int(v) < m.nv; v++ {
					if vm&(1<<v) == 0 {
						if d := projectionDiff(m, parent, child, v); d != "" {
							t.Fatalf("%s changes %s of %s outside its footprint %#x", m.label(parent, tr), d, vname(v), ft)
						}
					}
				}
				for ci := 0; ci < m.nc; ci++ {
					if cm&(1<<ci) == 0 && cuDiff(parent, child, ci) {
						t.Fatalf("%s changes cu%d's store buffer or masks outside its footprint %#x", m.label(parent, tr), ci, ft)
					}
				}
			})
			if err != nil && !(err == errStop && budget == dporGapBudget) {
				t.Fatalf("explore: %v", err)
			}
			if viol != nil {
				t.Fatalf("explore: %v", viol)
			}
			t.Logf("%d nodes", n)
		})
	}
}

// corruption breaks one invariant at variable v and CU ci of s,
// reporting false where it does not apply. perCU corruptions change
// CU ci's store buffer or masks, so they target a CU the footprint
// names; the others change only v's projection.
type corruption struct {
	invariant string
	perCU     bool
	apply     func(m *model, s *state, v, ci uint8) bool
}

var corruptions = []corruption{
	{"swmr-registration", false, func(m *model, s *state, v, ci uint8) bool {
		if m.cfg.proto != protoDeNovo || m.nc < 2 {
			return false
		}
		s.cus[ci].st[v] = wReg
		s.cus[(int(ci)+1)%m.nc].st[v] = wReg
		return true
	}},
	{"dirty-protocol", false, func(m *model, s *state, v, ci uint8) bool {
		if m.cfg.proto == protoGPU && m.cfg.partial {
			s.cus[ci].st[v] = wReg
		} else {
			s.cus[ci].st[v] = wDirty
		}
		return true
	}},
	{"sb-fifo", true, func(m *model, s *state, v, ci uint8) bool {
		cu := &s.cus[ci]
		if int(cu.sbLen)+2 > maxVars {
			return false
		}
		if _, ok := cu.sbLookup(v); !ok {
			cu.sbVar[cu.sbLen] = v
			cu.sbLen++
		}
		cu.sbVar[cu.sbLen] = v
		cu.sbLen++
		return true
	}},
	{"lazy-reg-exclusive", true, func(m *model, s *state, v, ci uint8) bool {
		s.cus[ci].lazy |= 1 << v
		s.cus[ci].regIn |= 1 << v
		return true
	}},
	{"lazy-orphan", true, func(m *model, s *state, v, ci uint8) bool {
		s.cus[ci].sbRemove(v)
		s.cus[ci].lazy |= 1 << v
		return true
	}},
	{"wt-balance", false, func(m *model, s *state, v, ci uint8) bool {
		s.cus[ci].wtCnt[v]++
		return m.cfg.proto == protoGPU
	}},
	{"reg-single", true, func(m *model, s *state, v, ci uint8) bool {
		s.cus[ci].regIn ^= 1 << v
		return m.cfg.proto == protoDeNovo
	}},
	{"reg-single", false, func(m *model, s *state, v, ci uint8) bool {
		s.msgs = append(s.msgs, msg{kind: mRegReq, src: ci, dst: home, v: v})
		return m.cfg.proto == protoDeNovo
	}},
	{"l2-agreement", false, func(m *model, s *state, v, ci uint8) bool {
		if s.owner[v] < 0 {
			s.owner[v] = int8(ci)
		} else {
			s.owner[v] = -1
		}
		return m.cfg.proto == protoDeNovo
	}},
}

// named decodes footprint ft the way the dpor.go header defines its
// bits, independently of model.touched: the variables and CUs of its
// slot bits and the variables of its home bits. The corruptions target
// them.
func named(ft uint64) (vm, cm uint8) {
	for b := uint(0); b < fpTctl; b++ {
		if ft&(1<<b) != 0 {
			vm |= 1 << (b % maxVars)
			cm |= 1 << (b / maxVars)
		}
	}
	for v := uint(0); v < maxVars; v++ {
		if ft&homeBit(uint8(v)) != 0 {
			vm |= 1 << v
		}
	}
	return vm, cm
}

// target picks the k-th (mod count) set bit of mask.
func target(mask uint8, k int) uint8 {
	k %= bits.OnesCount8(mask)
	for ; k > 0; k-- {
		mask &= mask - 1
	}
	return uint8(bits.TrailingZeros8(mask))
}

// TestIncrementalInvariantsMatchFull is the wall of the incremental
// invariant check. At every node of the light catalog cells and of the
// fault-injected MP+preload cells under GD and DD (up to the stale read
// they report), the check
// over the transition's footprint must agree with the full suite: on
// the node itself, and on a copy of it corrupted by each corruption at
// a variable and CU the footprint names (named; rotating through them
// node by node). Every invariant the incremental path checks must be reported
// somewhere on the way.
//
// Then, end to end, the explorer runs with each corruption injected
// into the state after one transition taken deep in the exploration,
// at the last of the two or more variables its footprint names: it must
// report the violation and counterexample trace the full suite reports
// at that state.
func TestIncrementalInvariantsMatchFull(t *testing.T) {
	var (
		mu    sync.Mutex
		hit   = map[string]int{} // violations reported, by invariant
		nodes int
	)
	cells := lightCells(false)
	for _, base := range []machine.Config{machine.GD(), machine.DD()} {
		cfg := base
		cfg.FaultDisableAcquireInval = true
		cells = append(cells, cell{cfg, catalogProgram(t, "MP+preload")})
	}
	t.Run("nodes", func(t *testing.T) {
		for _, c := range cells {
			t.Run(c.String(), func(t *testing.T) {
				t.Parallel()
				var scratch state
				n, found := 0, map[string]int{}
				_, viol, err := exploreWith(t, c, DefaultBudget, func(_ *explorer, m *model, parent, child *state, tr trans, ft uint64) {
					if child.viol != "" {
						return
					}
					n++
					vm, cm := named(ft)
					tv, tc := m.touched(ft)
					check := func(what string) {
						gn, gd := m.checkInvariantsOver(&scratch, tv, tc)
						wn, wd := m.checkInvariants(&scratch)
						if gn != wn || gd != wd {
							t.Fatalf("after %s (footprint %#x), %s: incremental check reports %q %q, full suite %q %q",
								m.label(parent, tr), ft, what, gn, gd, wn, wd)
						}
						if wn != "" {
							found[wn]++
						}
					}
					scratch.copyFrom(child, m.nc, m.nt)
					check("uncorrupted")
					for k, cr := range corruptions {
						if cr.perCU && cm == 0 {
							continue
						}
						v := target(vm, n+k)
						ci := uint8((n + k) % m.nc)
						if cr.perCU {
							ci = target(cm, n+k)
						}
						scratch.copyFrom(child, m.nc, m.nt)
						if cr.apply(m, &scratch, v, ci) {
							check(fmt.Sprintf("corrupted for %s at %s, cu%d", cr.invariant, vname(v), ci))
						}
					}
				})
				fault := c.cfg.FaultDisableAcquireInval
				if err != nil || viol != nil && !(fault && viol.Invariant == "oracle-conformance") {
					t.Fatalf("explore: %v %v", err, viol)
				}
				mu.Lock()
				defer mu.Unlock()
				nodes += n
				for name, k := range found {
					hit[name] += k
				}
			})
		}
	})
	for _, cr := range corruptions {
		if hit[cr.invariant] == 0 {
			t.Errorf("no corruption made the full suite report %s", cr.invariant)
		}
	}
	t.Logf("%d nodes; violations reported: %v", nodes, hit)

	var scratch state
	e2e := map[string]int{} // explorer runs that reported the corruption, by invariant
	for _, c := range []cell{
		{machine.GH(), catalogProgram(t, "MP+preload")},
		{machine.GD(), catalogProgram(t, "IRIW+scoped")},
		{machine.DD(), catalogProgram(t, "MP+preload")},
		{configNamed(t, "DH+lazy"), catalogProgram(t, "MP+preload")},
	} {
		for k, cr := range corruptions {
			const after = 500 // transitions before the corruption
			taken, want := 0, ""
			_, viol, err := exploreWith(t, c, DefaultBudget, func(x *explorer, m *model, _, child *state, tr trans, ft uint64) {
				if taken++; taken < after || want != "" || child.viol != "" {
					return
				}
				vm, cm := named(ft)
				if bits.OnesCount8(vm) < 2 || cr.perCU && cm == 0 {
					return
				}
				v, ci := target(vm, -1+bits.OnesCount8(vm)), uint8(taken%m.nc)
				if cr.perCU {
					ci = target(cm, taken)
				}
				scratch.copyFrom(child, m.nc, m.nt)
				if !cr.apply(m, &scratch, v, ci) {
					return
				}
				name, detail := m.checkInvariants(&scratch)
				if name == "" {
					return
				}
				child.copyFrom(&scratch, m.nc, m.nt)
				ts := make([]trans, len(x.frames)-1)
				for i := range ts {
					ts[i] = x.ev[i].t
				}
				want = (&Violation{Invariant: name, Detail: detail, Config: m.mcfg, Program: m.p, Trace: m.labels(ts)}).Error()
			})
			if err != nil {
				t.Fatalf("%s, corruption %d: %v", c, k, err)
			}
			switch {
			case want == "":
				if viol != nil {
					t.Fatalf("%s, corruption %d never applied, yet: %v", c, k, viol)
				}
			case viol == nil:
				t.Fatalf("%s: corrupted for %s, the explorer reports no violation; the full suite reports:\n%s", c, cr.invariant, want)
			case viol.Error() != want:
				t.Fatalf("%s: corrupted for %s, the explorer reports:\n%s\nthe full suite reports:\n%s", c, cr.invariant, viol.Error(), want)
			default:
				e2e[cr.invariant]++
			}
		}
	}
	for _, cr := range corruptions {
		if e2e[cr.invariant] == 0 {
			t.Errorf("no end-to-end corruption made the explorer report %s", cr.invariant)
		}
	}
	t.Logf("end to end: %v", e2e)
}

// TestCopyFromCopiesEveryField: a state copied for a model of nc CUs
// and nt threads equals its source everywhere but the CUs and loads
// past them, which keep what the destination held. Every field of the
// source is set, so a field added to state that copyFrom misses fails
// here.
func TestCopyFromCopiesEveryField(t *testing.T) {
	var p state
	fill(reflect.ValueOf(&p).Elem())
	for _, shape := range [][2]int{{maxCUs, maxThreads}, {2, 3}} {
		nc, nt := shape[0], shape[1]
		var s state
		s.copyFrom(&p, nc, nt)
		want := p
		clear(want.cus[nc:])
		clear(want.loads[nt:])
		if !reflect.DeepEqual(s, want) {
			t.Errorf("copyFrom with %d CUs and %d threads:\n got %+v\nwant %+v", nc, nt, s, want)
		}
	}
}

// fill sets every scalar reachable from v to a nonzero value, and
// every slice to one such element. v must be addressable; unexported
// fields are reached through their address.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			fill(reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(v.Index(0))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int8:
		v.SetInt(1)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32:
		v.SetUint(1)
	case reflect.String:
		v.SetString("x")
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// TestExplorerReusedAcrossShapes runs one explorer on a four-CU
// program and then on two-CU programs, as the stacks pool does across
// Check calls: each must explore exactly what a fresh explorer does,
// and the depth buffers must hold nothing past the new shape.
func TestExplorerReusedAcrossShapes(t *testing.T) {
	run := func(x *explorer, c cell) string {
		m, oracle, err := prepare(c.cfg, c.p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		clear(x.seen)
		n, viol, err := x.explore(m, oracle, &splitNode{}, 0, newLedger(DefaultBudget, 0, 1))
		if err != nil || viol != nil {
			t.Fatalf("%s: %v %v", c, err, viol)
		}
		for _, fr := range x.frames[:cap(x.frames)] {
			if fr.s == nil {
				continue
			}
			for ci := m.nc; ci < maxCUs; ci++ {
				if fr.s.cus[ci] != (cuState{}) {
					t.Fatalf("%s: a depth buffer holds cu%d past the program's %d CUs", c, ci, m.nc)
				}
			}
			for ti := m.nt; ti < maxThreads; ti++ {
				if fr.s.loads[ti] != [maxOpsPerThread]uint32{} {
					t.Fatalf("%s: a depth buffer holds thread %d's loads past the program's %d threads", c, ti, m.nt)
				}
			}
		}
		keys := make([]outKey, 0, len(x.seen))
		for k := range x.seen {
			keys = append(keys, k)
		}
		return fmt.Sprintf("%d nodes, %d outcome keys", n, len(keys))
	}
	reused := &explorer{seen: make(map[outKey]seenOutcome)}
	for _, c := range []cell{
		{machine.GD(), catalogProgram(t, "IRIW+sync")},
		{machine.DD(), catalogProgram(t, "MP+preload")},
		{machine.GD(), catalogProgram(t, "SB+data")},
	} {
		got := run(reused, c)
		if want := run(&explorer{seen: make(map[outKey]seenOutcome)}, c); got != want {
			t.Fatalf("%s: reused explorer: %s; fresh explorer: %s", c, got, want)
		}
	}
}
