package litmus

import (
	"testing"

	"denovogpu/internal/coherence"
	"denovogpu/internal/machine"
	"denovogpu/internal/mem"
	"denovogpu/internal/workload"
)

// These stress shapes complement the oracle-checked catalog: they use
// spin loops and op counts far beyond what outcome enumeration can
// handle, so they assert a functional postcondition instead of
// consulting the oracle. (The bounded equivalents of these shapes —
// MP, ISA2 — are in the catalog.)

// TestHRFIndirectTransitivity checks the defining property of
// HRF-Indirect (the HRF variant the paper uses): synchronization
// composes transitively across scopes. Block A writes data and
// local-releases to sibling B (same CU); B global-releases to C
// (another CU); C must observe A's write even though A and C never
// synchronized directly. The catalog's ISA2 entry checks the same
// property at oracle scale; this version runs it with spin loops on a
// full 45-block grid.
func TestHRFIndirectTransitivity(t *testing.T) {
	var (
		data  = mem.Addr(0x1000)
		lflag = mem.Addr(0x2000) // local flag, one per CU (only CU 0 used)
		gflag = mem.Addr(0x3000) // global flag
		out   = mem.Addr(0x4000)
	)
	// Blocks 0 and 15 land on CU 0 (45-block grid, first launch); block
	// 1 lands on CU 1.
	kernel := func(c *workload.Ctx) {
		switch c.TB {
		case 0: // A, on CU 0
			c.Store(data, 77)
			c.AtomicStore(lflag, 1, coherence.ScopeLocal)
		case 15: // B, also on CU 0
			for c.AtomicLoad(lflag, coherence.ScopeLocal) == 0 {
				c.Compute(15)
			}
			c.AtomicStore(gflag, 1, coherence.ScopeGlobal)
		case 1: // C, on CU 1
			for c.AtomicLoad(gflag, coherence.ScopeGlobal) == 0 {
				c.Compute(15)
			}
			c.Store(out, c.Load(data))
		}
	}
	for _, cfg := range machine.AllConfigs() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			m := machine.New(cfg)
			m.Launch(kernel, 45, 32)
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}
			if got := m.Read(out); got != 77 {
				t.Fatalf("C read %d, want 77 — transitive synchronization broken", got)
			}
		})
	}
}

// TestReleaseOrdersAllPriorWrites: a release must publish *every*
// program-order-earlier write, including writes to many distinct lines
// that stress buffer drain, under contention from other blocks.
func TestReleaseOrdersAllPriorWrites(t *testing.T) {
	const words = 80
	var (
		data = mem.Addr(0x1000)
		flag = mem.Addr(0x8000)
		sink = mem.Addr(0x9000)
	)
	kernel := func(c *workload.Ctx) {
		if c.TB == 0 {
			for i := 0; i < words; i++ {
				// Strided across lines to defeat coalescing.
				c.Store(data+mem.Addr(4*i*mem.WordsPerLine), uint32(i+1))
			}
			c.AtomicStore(flag, 1, coherence.ScopeGlobal)
			return
		}
		for c.AtomicLoad(flag, coherence.ScopeGlobal) == 0 {
			c.Compute(11)
		}
		var sum uint32
		for i := 0; i < words; i++ {
			sum += c.Load(data + mem.Addr(4*i*mem.WordsPerLine))
		}
		c.Store(sink+mem.Addr(4*c.TB), sum)
	}
	want := uint32(words * (words + 1) / 2)
	for _, cfg := range machine.AllConfigs() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			m := machine.New(cfg)
			m.Launch(kernel, 8, 32)
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}
			for tb := 1; tb < 8; tb++ {
				if got := m.Read(sink + mem.Addr(4*tb)); got != want {
					t.Fatalf("TB %d sum %d, want %d — release published partial writes", tb, got, want)
				}
			}
		})
	}
}

// TestAcquireCascade: values handed through a chain of flags across
// every CU; each link is release-acquire, so the final reader must see
// the accumulated sum (a 15-hop message-passing chain).
func TestAcquireCascade(t *testing.T) {
	var (
		vals  = mem.Addr(0x1000)
		flags = mem.Addr(0x8000)
	)
	const n = 15
	kernel := func(c *workload.Ctx) {
		i := c.TB
		if i >= n {
			return
		}
		if i > 0 {
			for c.AtomicLoad(flags+mem.Addr(64*(i-1)), coherence.ScopeGlobal) == 0 {
				c.Compute(13)
			}
		}
		prev := uint32(0)
		if i > 0 {
			prev = c.Load(vals + mem.Addr(64*(i-1)))
		}
		c.Store(vals+mem.Addr(64*i), prev+uint32(i+1))
		c.AtomicStore(flags+mem.Addr(64*i), 1, coherence.ScopeGlobal)
	}
	for _, cfg := range machine.AllConfigs() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			m := machine.New(cfg)
			m.Launch(kernel, n, 32)
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}
			want := uint32(n * (n + 1) / 2)
			if got := m.Read(vals + mem.Addr(64*(n-1))); got != want {
				t.Fatalf("chain sum %d, want %d", got, want)
			}
		})
	}
}
