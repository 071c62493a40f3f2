package workload

import (
	"errors"
	"testing"

	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
)

// scriptExec records the operations a kernel performs. Atomics return
// vals in turn, then loadVal.
type scriptExec struct {
	vecs    [][2][]mem.Addr // loads, stores
	atomics []coherence.AtomicOp
	scopes  []coherence.Scope
	orders  []coherence.Order
	compute int
	waits   []int
	scratch int
	loadVal uint32
	vals    []uint32
}

func (s *scriptExec) Vec(loads []mem.Addr, stores []mem.Addr, vals []uint32, dst []uint32) {
	s.vecs = append(s.vecs, [2][]mem.Addr{loads, stores})
	for i := range loads {
		dst[i] = s.loadVal
	}
}

func (s *scriptExec) Atomic(op coherence.AtomicOp, a mem.Addr, o1, o2 uint32, order coherence.Order, scope coherence.Scope) uint32 {
	s.atomics = append(s.atomics, op)
	s.scopes = append(s.scopes, scope)
	s.orders = append(s.orders, order)
	if len(s.vals) > 0 {
		v := s.vals[0]
		s.vals = s.vals[1:]
		return v
	}
	return s.loadVal
}

// Spin is the kernel-side loop the spin op stands for.
func (s *scriptExec) Spin(sp Spin) (uint32, int) {
	for {
		v := s.Atomic(sp.Op, sp.Addr, sp.Operand, sp.Operand2, sp.Order(), sp.Scope)
		if sp.Pass(v) {
			return v, sp.Delay
		}
		s.Compute(sp.Compute)
		s.Wait(sp.Delay)
		sp.BackOff()
	}
}

func (s *scriptExec) Compute(n int) { s.compute += n }
func (s *scriptExec) Wait(n int)    { s.waits = append(s.waits, n) }
func (s *scriptExec) Scratch(n int) { s.scratch += n }

func newCtx(ex Executor) *Ctx {
	return &Ctx{TB: 2, NumTBs: 10, Threads: 4, CU: 1, NumCUs: 5, Ex: ex}
}

func TestCtxScalarOps(t *testing.T) {
	ex := &scriptExec{loadVal: 9}
	c := newCtx(ex)
	if v := c.Load(0x40); v != 9 {
		t.Fatalf("Load = %d", v)
	}
	c.Store(0x44, 5)
	if len(ex.vecs) != 2 {
		t.Fatalf("ops recorded: %d", len(ex.vecs))
	}
	if len(ex.vecs[0][0]) != 1 || ex.vecs[0][0][0] != 0x40 {
		t.Fatal("scalar load shape wrong")
	}
	if len(ex.vecs[1][1]) != 1 || ex.vecs[1][1][0] != 0x44 {
		t.Fatal("scalar store shape wrong")
	}
}

// addrExec loads each word's own address as its value, without
// recording anything.
type addrExec struct{ scriptExec }

func (*addrExec) Vec(loads []mem.Addr, _ []mem.Addr, _ []uint32, dst []uint32) {
	for i, a := range loads {
		dst[i] = uint32(a)
	}
}

// Spin passes at once with the word's address, after one back-off step.
func (*addrExec) Spin(s Spin) (uint32, int) {
	s.BackOff()
	return uint32(s.Addr), s.Delay
}

// A scalar load reads through the context's scratch word, so it
// allocates nothing, while vector loads return slices the kernel owns:
// holding one across the next load must not see it overwritten.
func TestCtxLoadDestinations(t *testing.T) {
	c := newCtx(&addrExec{})
	if n := testing.AllocsPerRun(100, func() {
		if c.Load(0x40) != 0x40 {
			t.Fatal("Load returned the wrong word")
		}
	}); n != 0 {
		t.Errorf("Load: %v allocs per call, want 0", n)
	}
	row := c.LoadStride(0x100)
	next := c.LoadV(c.StrideAddrs(0x200, 1))
	for i := range row {
		if row[i] != uint32(0x100+4*i) || next[i] != uint32(0x200+4*i) {
			t.Fatalf("lane %d: held row %#x, next %#x", i, row[i], next[i])
		}
	}
}

// LoadInto and LoadStrideInto load into the caller's buffer: no
// allocation once it is big enough, growth rather than a panic when it
// is short. LoadV and LoadStride still return a fresh slice per call.
func TestCtxLoadInto(t *testing.T) {
	c := newCtx(&addrExec{})
	addrs := []mem.Addr{0x10, 0x20}
	buf := make([]uint32, c.Threads)
	if n := testing.AllocsPerRun(100, func() { buf = c.LoadStrideInto(buf, 0x100) }); n != 0 {
		t.Errorf("LoadStrideInto: %v allocs per call, want 0", n)
	}
	for i, v := range buf {
		if v != uint32(0x100+4*i) {
			t.Fatalf("LoadStrideInto lane %d = %#x", i, v)
		}
	}
	held := &buf[0]
	if n := testing.AllocsPerRun(100, func() { buf = c.LoadInto(buf, addrs) }); n != 0 {
		t.Errorf("LoadInto: %v allocs per call, want 0", n)
	}
	if len(buf) != 2 || buf[0] != 0x10 || buf[1] != 0x20 || &buf[0] != held {
		t.Fatalf("LoadInto = %#x, want [0x10 0x20] in the caller's buffer", buf)
	}

	for _, short := range [][]uint32{nil, make([]uint32, 1, 2)} {
		got := c.LoadStrideInto(short, 0x300)
		if len(got) != c.Threads {
			t.Fatalf("LoadStrideInto into cap %d: len %d, want %d", cap(short), len(got), c.Threads)
		}
		for i, v := range got {
			if v != uint32(0x300+4*i) {
				t.Fatalf("grown LoadStrideInto lane %d = %#x", i, v)
			}
		}
	}

	a, b := c.LoadV(addrs), c.LoadV(addrs)
	if &a[0] == &b[0] {
		t.Fatal("two LoadV results share storage")
	}
	s1, s2 := c.LoadStride(0x100), c.LoadStride(0x100)
	if &s1[0] == &s2[0] {
		t.Fatal("two LoadStride results share storage")
	}
}

func TestCtxStrideAddrs(t *testing.T) {
	c := newCtx(&scriptExec{})
	addrs := c.StrideAddrs(0x100, 1)
	if len(addrs) != 4 {
		t.Fatalf("len %d", len(addrs))
	}
	for i, a := range addrs {
		if a != mem.Addr(0x100+4*i) {
			t.Fatalf("addr[%d] = %v", i, a)
		}
	}
	strided := c.StrideAddrs(0x100, 3)
	if strided[1] != 0x100+12 {
		t.Fatal("stride ignored")
	}
}

func TestCtxAtomicOrders(t *testing.T) {
	ex := &scriptExec{}
	c := newCtx(ex)
	c.AtomicLoad(0x40, coherence.ScopeLocal)
	c.AtomicStore(0x40, 1, coherence.ScopeGlobal)
	c.AtomicAdd(0x40, 1, coherence.ScopeGlobal)
	c.AtomicCAS(0x40, 0, 1, coherence.ScopeGlobal)
	c.AtomicExch(0x40, 1, coherence.ScopeGlobal)
	wantOrders := []coherence.Order{
		coherence.OrderAcquire, coherence.OrderRelease,
		coherence.OrderAcqRel, coherence.OrderAcqRel, coherence.OrderAcqRel,
	}
	for i, o := range wantOrders {
		if ex.orders[i] != o {
			t.Errorf("atomic %d order %v, want %v", i, ex.orders[i], o)
		}
	}
	if ex.scopes[0] != coherence.ScopeLocal || ex.scopes[1] != coherence.ScopeGlobal {
		t.Fatal("scopes not forwarded")
	}
}

func TestSpinPass(t *testing.T) {
	for _, tc := range []struct {
		cmp              Cmp
		below, eq, above bool // v = Value-1, Value, Value+1
	}{
		{CmpEq, false, true, false},
		{CmpGt, false, false, true},
		{CmpGe, false, true, true},
	} {
		s := Spin{Cmp: tc.cmp, Value: 5}
		if s.Pass(4) != tc.below || s.Pass(5) != tc.eq || s.Pass(6) != tc.above {
			t.Errorf("Cmp %d on 4, 5, 6 = %v %v %v, want %v %v %v",
				tc.cmp, s.Pass(4), s.Pass(5), s.Pass(6), tc.below, tc.eq, tc.above)
		}
	}
}

// SpinAtomic returns the value that passed, spends each failed
// attempt's Compute and Delay, and hands back the delay the next retry
// would have waited; SpinPause carries that backoff on.
func TestCtxSpinAtomic(t *testing.T) {
	ex := &scriptExec{vals: []uint32{3, 1, 5}}
	c := newCtx(ex)
	s := Spin{Op: coherence.AtomicLoad, Addr: 0x40, Scope: coherence.ScopeLocal, Cmp: CmpGe, Value: 4, Compute: 2, Delay: 8, Backoff: true}
	if v := c.SpinAtomic(&s); v != 5 {
		t.Fatalf("SpinAtomic = %d, want 5", v)
	}
	if len(ex.atomics) != 3 || ex.scopes[2] != coherence.ScopeLocal || ex.orders[2] != coherence.OrderAcquire {
		t.Fatalf("%d attempts (scopes %v, orders %v), want 3 local acquires", len(ex.atomics), ex.scopes, ex.orders)
	}
	if ex.compute != 4 || len(ex.waits) != 2 || ex.waits[0] != 8 || ex.waits[1] != 16 {
		t.Fatalf("compute %d, waits %v; want 4 and [8 16]", ex.compute, ex.waits)
	}
	if s.Delay != 32 {
		t.Fatalf("carried Delay = %d, want 32", s.Delay)
	}
	c.SpinPause(&s)
	if ex.compute != 6 || ex.waits[2] != 32 || s.Delay != 64 {
		t.Fatalf("SpinPause: compute %d, wait %d, Delay %d; want 6, 32, 64", ex.compute, ex.waits[2], s.Delay)
	}

	// An RMW spin acquires and releases, like Ctx.AtomicCAS.
	c.SpinAtomic(&Spin{Op: coherence.AtomicCAS, Addr: 0x40, Operand: 1, Cmp: CmpEq, Value: ex.loadVal})
	if o := ex.orders[len(ex.orders)-1]; o != coherence.OrderAcqRel {
		t.Fatalf("CAS spin order = %v, want %v", o, coherence.OrderAcqRel)
	}

	flat := Spin{Delay: 8}
	flat.BackOff()
	capped := Spin{Delay: 300, Backoff: true}
	capped.BackOff()
	if flat.Delay != 8 || capped.Delay != maxSpinDelay {
		t.Fatalf("BackOff: without %d, capped %d; want 8, %d", flat.Delay, capped.Delay, maxSpinDelay)
	}
}

// The caller's Spin stays on its stack: a spin per lock acquire must
// not allocate.
func TestCtxSpinAtomicAllocs(t *testing.T) {
	c := newCtx(&addrExec{})
	if n := testing.AllocsPerRun(100, func() {
		s := Spin{Op: coherence.AtomicCAS, Addr: 0x40, Operand: 1, Cmp: CmpEq, Value: 0x40, Delay: 8, Backoff: true}
		if c.SpinAtomic(&s) != 0x40 || s.Delay != 16 {
			t.Fatal("SpinAtomic lost the value or the carried delay")
		}
	}); n != 0 {
		t.Errorf("SpinAtomic: %v allocs per call, want 0", n)
	}
}

func TestArenaAllocation(t *testing.T) {
	a := NewArena()
	x := a.Words(5)
	y := a.Words(1)
	z := a.Line()
	if x.LineOf() == y.LineOf() || y.LineOf() == z.LineOf() {
		t.Fatal("allocations must not share lines")
	}
	if x%mem.LineBytes != 0 || y%mem.LineBytes != 0 {
		t.Fatal("allocations must be line aligned")
	}
	if y-x < 5*mem.WordBytes {
		t.Fatal("allocation too small")
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Skip("registry populated by benchmark packages, not linked here")
	}
}

func TestRegistryUnknown(t *testing.T) {
	_, err := Get("NOPE")
	if err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	Register(Workload{Name: "dup-test-wl"})
	Register(Workload{Name: "dup-test-wl"})
}

type fakeHost struct {
	mem map[mem.Addr]uint32
}

func (f *fakeHost) Launch(Kernel, int, int)              {}
func (f *fakeHost) LaunchPhase(string, Kernel, int, int) {}
func (f *fakeHost) Read(a mem.Addr) uint32               { return f.mem[a] }
func (f *fakeHost) Write(a mem.Addr, v uint32)           { f.mem[a] = v }
func (f *fakeHost) SetReadOnly(_, _ mem.Addr)            {}
func (f *fakeHost) ClearReadOnly()                       {}
func (f *fakeHost) NumCUs() int                          { return 15 }
func (f *fakeHost) WriteWords(base mem.Addr, vals []uint32) {
	for i, v := range vals {
		f.Write(base+mem.Addr(4*i), v)
	}
}

func TestSliceHelpers(t *testing.T) {
	h := &fakeHost{mem: map[mem.Addr]uint32{}}
	h.WriteWords(0x100, []uint32{1, 2, 3})
	got := ReadSlice(h, 0x100, 3)
	for i, v := range []uint32{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("slice roundtrip[%d] = %d", i, got[i])
		}
	}
	if errors.Is(nil, nil) != true { // keep errors import honest
		t.Fatal("unreachable")
	}
}
