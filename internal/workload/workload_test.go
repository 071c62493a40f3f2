package workload

import (
	"errors"
	"testing"

	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
)

// scriptExec records the operations a kernel performs.
type scriptExec struct {
	vecs    [][2][]mem.Addr // loads, stores
	atomics []coherence.AtomicOp
	scopes  []coherence.Scope
	orders  []coherence.Order
	compute int
	scratch int
	loadVal uint32
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
	return s.loadVal
}

func (s *scriptExec) Compute(n int) { s.compute += n }
func (s *scriptExec) Wait(n int)    { s.compute += n }
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

func (f *fakeHost) Launch(Kernel, int, int)    {}
func (f *fakeHost) Read(a mem.Addr) uint32     { return f.mem[a] }
func (f *fakeHost) Write(a mem.Addr, v uint32) { f.mem[a] = v }
func (f *fakeHost) SetReadOnly(_, _ mem.Addr)  {}
func (f *fakeHost) ClearReadOnly()             {}
func (f *fakeHost) NumCUs() int                { return 15 }

func TestSliceHelpers(t *testing.T) {
	h := &fakeHost{mem: map[mem.Addr]uint32{}}
	WriteSlice(h, 0x100, []uint32{1, 2, 3})
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
