package machine

import (
	"fmt"
	"testing"

	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
	"denovogpu/internal/workload"
	syncbench "denovogpu/internal/workload/sync"
)

// forEachConfig runs a subtest per paper configuration.
func forEachConfig(t *testing.T, fn func(t *testing.T, m *Machine)) {
	t.Helper()
	for _, cfg := range AllConfigs() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			fn(t, New(cfg))
		})
	}
}

// TestValidateMatchesNew: Validate rejects exactly the shapes New
// cannot build. Every shape it accepts builds, and each rejected one is
// a shape that used to panic deep inside New (an out-of-mesh node, a
// negative makeslice, a non-power-of-two cache).
func TestValidateMatchesNew(t *testing.T) {
	builds := func(c Config) (ok bool) {
		defer func() { ok = recover() == nil }()
		New(c)
		return
	}
	// Protocol 2 was the retired MESI extension; it must stay unknown.
	var shapes []Config
	for _, base := range []Config{GD(), DD(), Specialized(), {Protocol: 2}, {Protocol: 9}} {
		for _, devices := range []int{-1, 0, 1, 2, 2049} {
			for _, cus := range []int{-3, 0, 1, 16, 17, 100} {
				c := base
				c.Devices, c.NumCUs = devices, cus
				shapes = append(shapes, c)
			}
		}
	}
	for _, mut := range []func(*Config){
		func(c *Config) { c.L1Bytes = 100 },
		func(c *Config) { c.L1Ways = 3 },
		func(c *Config) { c.L1Bytes, c.L1Ways = -32768, -8 },
		func(c *Config) { c.SBEntries = -1 },
		func(c *Config) { c.MaxResidentTBs = -1 },
		func(c *Config) { c.Phases = map[string]PhaseProto{workload.PhasePush: {Protocol: 2}} },
		func(c *Config) { c.Phases = map[string]PhaseProto{workload.PhasePush: {Protocol: 9}} },
	} {
		for _, base := range []Config{DD(), GD()} {
			mut(&base)
			shapes = append(shapes, base)
		}
	}
	rejected := 0
	for _, c := range shapes {
		err := c.Validate()
		if got := builds(c); got != (err == nil) {
			t.Errorf("%+v: New builds=%v but Validate = %v", c, got, err)
		}
		if err != nil {
			rejected++
		}
	}
	if rejected == 0 || rejected == len(shapes) {
		t.Fatalf("%d of %d shapes rejected; the grid no longer spans both sides", rejected, len(shapes))
	}
}

func TestConfigNames(t *testing.T) {
	want := []string{"GD", "GH", "DD", "DD+RO", "DH"}
	for i, cfg := range AllConfigs() {
		if cfg.Name() != want[i] {
			t.Errorf("config %d name %q, want %q", i, cfg.Name(), want[i])
		}
	}
}

func TestVectorAddAllConfigs(t *testing.T) {
	const n = 1024
	a, b, c := mem.Addr(0x10000), mem.Addr(0x20000), mem.Addr(0x30000)
	forEachConfig(t, func(t *testing.T, m *Machine) {
		for i := 0; i < n; i++ {
			m.Write(a+mem.Addr(4*i), uint32(i))
			m.Write(b+mem.Addr(4*i), uint32(2*i))
		}
		const threads = 128
		kernel := func(ctx *workload.Ctx) {
			base := ctx.TB * threads
			if base >= n {
				return
			}
			av := ctx.LoadStride(a + mem.Addr(4*base))
			bv := ctx.LoadStride(b + mem.Addr(4*base))
			out := make([]uint32, threads)
			for i := range out {
				out[i] = av[i] + bv[i]
			}
			ctx.StoreStride(c+mem.Addr(4*base), out)
		}
		m.Launch(kernel, n/threads, threads)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if got := m.Read(c + mem.Addr(4*i)); got != uint32(3*i) {
				t.Fatalf("c[%d] = %d, want %d", i, got, 3*i)
			}
		}
		if m.Stats().Cycles == 0 {
			t.Fatal("no cycles recorded")
		}
		if m.Stats().TotalFlits() == 0 {
			t.Fatal("no network traffic recorded")
		}
	})
}

// TestMessagePassingLitmus is the canonical SC-for-DRF litmus: a
// producer block writes data then release-stores a flag; consumer
// blocks acquire-load the flag and, once set, must see the data. Under
// every configuration (and with the flag contended across all CUs) no
// stale data may be visible.
func TestMessagePassingLitmus(t *testing.T) {
	data, flag, out := mem.Addr(0x1000), mem.Addr(0x2000), mem.Addr(0x3000)
	forEachConfig(t, func(t *testing.T, m *Machine) {
		kernel := func(ctx *workload.Ctx) {
			if ctx.TB == 0 {
				ctx.Store(data, 42)
				ctx.AtomicStore(flag, 1, coherence.ScopeGlobal)
				return
			}
			for ctx.AtomicLoad(flag, coherence.ScopeGlobal) == 0 {
				ctx.Compute(20)
			}
			v := ctx.Load(data)
			ctx.Store(out+mem.Addr(4*ctx.TB), v)
		}
		m.Launch(kernel, 16, 32)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		for tb := 1; tb < 16; tb++ {
			if got := m.Read(out + mem.Addr(4*tb)); got != 42 {
				t.Fatalf("TB %d read stale data %d, want 42", tb, got)
			}
		}
	})
}

// TestSpinMutexCounter: every thread block increments a shared counter
// many times under a global CAS spin lock; the total must be exact
// under every configuration.
func TestSpinMutexCounter(t *testing.T) {
	lock, counter := mem.Addr(0x1000), mem.Addr(0x1100)
	const tbs, iters = 30, 5
	forEachConfig(t, func(t *testing.T, m *Machine) {
		kernel := func(ctx *workload.Ctx) {
			for it := 0; it < iters; it++ {
				for ctx.AtomicCAS(lock, 0, 1, coherence.ScopeGlobal) != 0 {
					ctx.Compute(10)
				}
				v := ctx.Load(counter)
				ctx.Store(counter, v+1)
				ctx.AtomicExch(lock, 0, coherence.ScopeGlobal)
			}
		}
		m.Launch(kernel, tbs, 32)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		if got := m.Read(counter); got != tbs*iters {
			t.Fatalf("counter = %d, want %d (lost updates)", got, tbs*iters)
		}
	})
}

// TestLocalScopeMutex: per-CU locks and per-CU counters, locally scoped
// under HRF configurations. All five configs must still be correct —
// under DRF the scope annotation is simply ignored (treated global).
func TestLocalScopeMutex(t *testing.T) {
	lockBase, ctrBase := mem.Addr(0x4000), mem.Addr(0x8000)
	const iters = 4
	forEachConfig(t, func(t *testing.T, m *Machine) {
		kernel := func(ctx *workload.Ctx) {
			lock := lockBase + mem.Addr(64*ctx.CU) // one lock per CU, distinct lines
			ctr := ctrBase + mem.Addr(64*ctx.CU)
			for it := 0; it < iters; it++ {
				for ctx.AtomicCAS(lock, 0, 1, coherence.ScopeLocal) != 0 {
					ctx.Compute(10)
				}
				v := ctx.Load(ctr)
				ctx.Store(ctr, v+1)
				ctx.AtomicExch(lock, 0, coherence.ScopeLocal)
			}
		}
		m.Launch(kernel, 45, 32) // 3 TBs per CU
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		for cu := 0; cu < m.NumCUs(); cu++ {
			if got := m.Read(ctrBase + mem.Addr(64*cu)); got != 3*iters {
				t.Fatalf("CU %d counter = %d, want %d", cu, got, 3*iters)
			}
		}
	})
}

// TestCrossKernelVisibility: kernel 1's writes must be visible to
// kernel 2 and to the host, under every protocol (DeNovo leaves
// registered words in L1s; host reads must still be coherent).
func TestCrossKernelVisibility(t *testing.T) {
	buf := mem.Addr(0x10000)
	forEachConfig(t, func(t *testing.T, m *Machine) {
		k1 := func(ctx *workload.Ctx) {
			ctx.StoreStride(buf+mem.Addr(4*32*ctx.TB), fill(32, func(i int) uint32 { return uint32(ctx.TB*100 + i) }))
		}
		k2 := func(ctx *workload.Ctx) {
			v := ctx.LoadStride(buf + mem.Addr(4*32*ctx.TB))
			out := make([]uint32, 32)
			for i := range out {
				out[i] = v[i] + 1
			}
			ctx.StoreStride(buf+mem.Addr(4*32*ctx.TB), out)
		}
		m.Launch(k1, 20, 32)
		// Shift reads to a different CU mapping in kernel 2 by reversing
		// block roles: block tb reads block (19-tb)'s data.
		m.Launch(k2, 20, 32)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		for tb := 0; tb < 20; tb++ {
			for i := 0; i < 32; i++ {
				want := uint32(tb*100 + i + 1)
				if got := m.Read(buf + mem.Addr(4*(32*tb+i))); got != want {
					t.Fatalf("buf[%d][%d] = %d, want %d", tb, i, got, want)
				}
			}
		}
	})
}

func fill(n int, f func(i int) uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// TestHostWriteRecallsOwnership: after a kernel leaves a word
// registered in an L1 (DeNovo), a host write must recall it and a
// following kernel must read the host's value.
func TestHostWriteRecallsOwnership(t *testing.T) {
	w := mem.Addr(0x5000)
	m := New(DD())
	k1 := func(ctx *workload.Ctx) {
		if ctx.TB == 0 {
			ctx.Store(w, 7)
		}
	}
	m.Launch(k1, 1, 32)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if got := m.Read(w); got != 7 {
		t.Fatalf("host read %d, want 7 (owned word)", got)
	}
	m.Write(w, 9)
	var seen uint32
	k2 := func(ctx *workload.Ctx) {
		if ctx.TB == 0 {
			seen = ctx.Load(w)
		}
	}
	m.Launch(k2, 1, 32)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != 9 {
		t.Fatalf("kernel read %d after host write, want 9", seen)
	}
}

// TestDeterminism: two identical runs produce identical cycle counts,
// traffic, and event counts.
func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		m := New(DD())
		lock, counter := mem.Addr(0x1000), mem.Addr(0x1100)
		kernel := func(ctx *workload.Ctx) {
			for it := 0; it < 3; it++ {
				for ctx.AtomicCAS(lock, 0, 1, coherence.ScopeGlobal) != 0 {
					ctx.Compute(7)
				}
				v := ctx.Load(counter)
				ctx.Store(counter, v+1)
				ctx.AtomicExch(lock, 0, coherence.ScopeGlobal)
			}
		}
		m.Launch(kernel, 15, 32)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		return m.Stats().Cycles, m.Stats().TotalFlits()
	}
	c1, f1 := run()
	c2, f2 := run()
	if c1 != c2 || f1 != f2 {
		t.Fatalf("nondeterministic: run1 (%d cycles, %d flits) vs run2 (%d, %d)", c1, f1, c2, f2)
	}
}

// TestReadOnlyRegionCorrectness: DD+RO must not return stale data when
// the host rewrites a previously read-only region after clearing it.
func TestReadOnlyRegionCorrectness(t *testing.T) {
	in, out := mem.Addr(0x1000), mem.Addr(0x9000)
	m := New(DDRO())
	m.Write(in, 5)
	m.SetReadOnly(in, in+64)
	k := func(ctx *workload.Ctx) {
		if ctx.TB == 0 {
			ctx.Store(out, ctx.Load(in))
		}
	}
	m.Launch(k, 1, 32)
	m.ClearReadOnly()
	m.Write(in, 50)
	m.SetReadOnly(in, in+64)
	m.Launch(k, 1, 32)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if got := m.Read(out); got != 50 {
		t.Fatalf("second kernel read %d, want 50 — stale RO data", got)
	}
}

// TestClearReadOnlyReachesSparedCopies: once the host revokes a
// read-only region, the next acquire must drop a copy earlier acquires
// spared, even though nothing touched that copy in between.
func TestClearReadOnlyReachesSparedCopies(t *testing.T) {
	in, out := mem.Addr(0x1000), mem.Addr(0x9000)
	m := New(DDRO())
	m.Write(in, 5)
	m.SetReadOnly(in, in+64)
	read := func(ctx *workload.Ctx) {
		if ctx.CU == 1 {
			ctx.Store(out, ctx.Load(in))
		}
	}
	m.Launch(read, 45, 32)
	m.Launch(func(*workload.Ctx) {}, 45, 32) // its acquires spare the copy
	m.ClearReadOnly()
	m.Launch(func(ctx *workload.Ctx) {
		if ctx.CU == 0 {
			ctx.Store(in, 50)
		}
	}, 45, 32)
	m.Launch(read, 45, 32)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if got := m.Read(out); got != 50 {
		t.Fatalf("CU 1 read %d, want 50 — stale copy of a revoked read-only word", got)
	}
}

// TestGPUFasterWithLocalScope sanity-checks the first-order performance
// relationship the paper reports: under GPU coherence, locally scoped
// locking (GH) must beat globally scoped locking (GD).
func TestGPUFasterWithLocalScope(t *testing.T) {
	run := func(cfg Config) uint64 {
		m := New(cfg)
		lockBase, ctrBase := mem.Addr(0x4000), mem.Addr(0x8000)
		kernel := func(ctx *workload.Ctx) {
			lock := lockBase + mem.Addr(64*ctx.CU)
			ctr := ctrBase + mem.Addr(64*ctx.CU)
			for it := 0; it < 10; it++ {
				for ctx.AtomicCAS(lock, 0, 1, coherence.ScopeLocal) != 0 {
					ctx.Compute(5)
				}
				v := ctx.Load(ctr)
				ctx.Store(ctr, v+1)
				ctx.AtomicExch(lock, 0, coherence.ScopeLocal)
			}
		}
		m.Launch(kernel, 45, 32)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		return m.Stats().Cycles
	}
	gd, gh := run(GD()), run(GH())
	if gh >= gd {
		t.Fatalf("GH (%d cycles) should beat GD (%d cycles) on local-scope locking", gh, gd)
	}
}

// TestDeNovoSyncReuseBeatsGPUGlobal sanity-checks the paper's Figure 3
// relationship: on globally scoped locking, DD must beat GD.
func TestDeNovoSyncReuseBeatsGPUGlobal(t *testing.T) {
	run := func(cfg Config) uint64 {
		m := New(cfg)
		lock, ctrBase := mem.Addr(0x1000), mem.Addr(0x8000)
		kernel := func(ctx *workload.Ctx) {
			for it := 0; it < 5; it++ {
				for ctx.AtomicCAS(lock, 0, 1, coherence.ScopeGlobal) != 0 {
					ctx.Compute(5)
				}
				v := ctx.Load(ctrBase)
				ctx.Store(ctrBase, v+1)
				ctx.AtomicExch(lock, 0, coherence.ScopeGlobal)
			}
		}
		m.Launch(kernel, 45, 32)
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		return m.Stats().Cycles
	}
	gd, dd := run(GD()), run(DD())
	if dd >= gd {
		t.Fatalf("DD (%d cycles) should beat GD (%d cycles) on global locking", dd, gd)
	}
}

func TestLaunchErrorPropagates(t *testing.T) {
	m := New(GD())
	m.Launch(func(*workload.Ctx) {}, 0, 32)
	if m.Err() == nil {
		t.Fatal("invalid grid should error")
	}
	// Subsequent launches are no-ops after an error.
	m.Launch(func(*workload.Ctx) {}, 1, 32)
	if m.Err() == nil {
		t.Fatal("error must stick")
	}
}

func TestStatsString(t *testing.T) {
	m := New(GD())
	m.Launch(func(ctx *workload.Ctx) { ctx.Store(0x100, 1) }, 1, 32)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats().String()
	if s == "" {
		t.Fatal("empty stats report")
	}
	_ = fmt.Sprintf("%v", m.Config())
}

func TestDefaultsPreserveCustomValues(t *testing.T) {
	cfg := Config{Protocol: ProtoDeNovo, NumCUs: 4, SBEntries: 16, L1Bytes: 8192, L1Ways: 4}
	d := cfg.Defaults()
	if d.NumCUs != 4 || d.SBEntries != 16 || d.L1Bytes != 8192 || d.L1Ways != 4 {
		t.Fatalf("Defaults clobbered custom values: %+v", d)
	}
	if d.MaxResidentTBs != 3 || d.LaunchOverheadCycles == 0 || d.HorizonCycles == 0 {
		t.Fatalf("Defaults missing: %+v", d)
	}
}

func TestCustomGeometryRuns(t *testing.T) {
	cfg := DD()
	cfg.NumCUs = 4
	cfg.L1Bytes = 8 * 1024
	cfg.SBEntries = 32
	m := New(cfg)
	lock, ctr := mem.Addr(0x1000), mem.Addr(0x1100)
	kernel := func(c *workload.Ctx) {
		for i := 0; i < 3; i++ {
			for c.AtomicCAS(lock, 0, 1, coherence.ScopeGlobal) != 0 {
				c.Wait(7)
			}
			c.Store(ctr, c.Load(ctr)+1)
			c.AtomicStore(lock, 0, coherence.ScopeGlobal)
		}
	}
	m.Launch(kernel, 8, 32)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if got := m.Read(ctr); got != 24 {
		t.Fatalf("counter %d, want 24", got)
	}
}

func TestInvariantCheckerCleanAfterRun(t *testing.T) {
	m := New(DD())
	kernel := func(c *workload.Ctx) {
		c.StoreStride(0x4000+mem.Addr(4*32*c.TB), make([]uint32, 32))
	}
	m.Launch(kernel, 30, 32)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariant violated on a clean run: %v", err)
	}
}

// TestSmallL1BarrierCorrectness is a regression test for a same-node
// FIFO bug: under heavy L1 pressure, a DeNovo eviction's WriteBack to a
// co-located bank was overtaken by the immediately following
// re-registration (shorter message, empty route), so the registry
// accepted the writeback after re-granting ownership and stranded the
// fresh value. An 8 KB L1 reproduces the eviction/re-register cadence.
func TestSmallL1BarrierCorrectness(t *testing.T) {
	for _, kb := range []int{4, 8} {
		kb := kb
		t.Run(fmt.Sprintf("l1=%dKB", kb), func(t *testing.T) {
			w := syncbench.TreeBarrier(syncbench.BarrierParams{Iters: 30, Accesses: 10})
			cfg := DD()
			cfg.L1Bytes = kb * 1024
			m := New(cfg)
			w.Host(m)
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}
			if err := w.Verify(m); err != nil {
				t.Fatal(err)
			}
		})
	}
}
