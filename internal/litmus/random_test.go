package litmus

import (
	"math/rand"
	"testing"

	"denovogpu/internal/coherence"
	"denovogpu/internal/machine"
	"denovogpu/internal/mem"
	"denovogpu/internal/workload"
)

// The tests in this file are the workload-scale complement of the
// litmus fuzzer: random but data-race-free programs whose exact result
// is computable sequentially, so every configuration must match the
// reference bit for bit. Where the fuzzer explores small racy programs
// against the consistency oracle, these explore large well-synchronized
// ones against a functional oracle.

// TestRandomRaceFreePrograms generates random data-race-free programs
// and checks that every configuration produces exactly the sequential
// reference result. Each thread block owns a private region (written
// only by itself), reads shared read-only input, and updates shared
// counters only inside a global lock. Any coherence bug — stale data,
// lost updates, misrouted ownership, broken store-buffer drains —
// shows up as a verification mismatch.
func TestRandomRaceFreePrograms(t *testing.T) {
	const (
		numTBs      = 30
		threads     = 32
		ownWords    = 96
		sharedWords = 8
		steps       = 12
	)
	var (
		ownBase    = mem.Addr(0x100000) // numTBs * ownWords words
		roBase     = mem.Addr(0x200000) // read-only input
		lock       = mem.Addr(0x300000)
		sharedBase = mem.Addr(0x300040)
	)
	ownAddr := func(tb, i int) mem.Addr { return ownBase + mem.Addr(4*(tb*ownWords+i)) }

	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		// Build per-TB operation scripts deterministically from the seed.
		type op struct {
			kind int // 0: own-region rmw, 1: RO-read + own write, 2: locked shared inc, 3: compute
			a, b int
		}
		scripts := make([][]op, numTBs)
		rng := rand.New(rand.NewSource(seed))
		for tb := range scripts {
			for s := 0; s < steps; s++ {
				scripts[tb] = append(scripts[tb], op{
					kind: rng.Intn(4),
					a:    rng.Intn(ownWords - threads),
					b:    rng.Intn(sharedWords),
				})
			}
		}

		// Sequential reference.
		refOwn := make([]uint32, numTBs*ownWords)
		refShared := make([]uint32, sharedWords)
		roVal := func(i int) uint32 { return uint32(i*3 + 1) }
		for tb := 0; tb < numTBs; tb++ {
			for _, o := range scripts[tb] {
				switch o.kind {
				case 0:
					for t := 0; t < threads; t++ {
						refOwn[tb*ownWords+o.a+t] += uint32(o.b + 1)
					}
				case 1:
					for t := 0; t < threads; t++ {
						refOwn[tb*ownWords+o.a+t] += roVal(o.a + t)
					}
				case 2:
					refShared[o.b]++
				}
			}
		}

		kernel := func(c *workload.Ctx) {
			for _, o := range scripts[c.TB] {
				switch o.kind {
				case 0:
					addrs := make([]mem.Addr, threads)
					for t := range addrs {
						addrs[t] = ownAddr(c.TB, o.a+t)
					}
					v := c.LoadV(addrs)
					for t := range v {
						v[t] += uint32(o.b + 1)
					}
					c.StoreV(addrs, v)
				case 1:
					ro := make([]mem.Addr, threads)
					own := make([]mem.Addr, threads)
					for t := range ro {
						ro[t] = roBase + mem.Addr(4*(o.a+t))
						own[t] = ownAddr(c.TB, o.a+t)
					}
					rv := c.LoadV(ro)
					ov := c.LoadV(own)
					for t := range ov {
						ov[t] += rv[t]
					}
					c.StoreV(own, ov)
				case 2:
					for c.AtomicCAS(lock, 0, 1, coherence.ScopeGlobal) != 0 {
						c.Compute(9)
					}
					sa := sharedBase + mem.Addr(4*o.b)
					c.Store(sa, c.Load(sa)+1)
					c.AtomicStore(lock, 0, coherence.ScopeGlobal)
				case 3:
					c.Compute(o.a%17 + 1)
				}
			}
		}

		for _, cfg := range machine.AllConfigs() {
			cfg := cfg
			t.Run(cfg.Name(), func(t *testing.T) {
				m := machine.New(cfg)
				for i := 0; i < ownWords; i++ {
					m.Write(roBase+mem.Addr(4*i), roVal(i))
				}
				m.SetReadOnly(roBase, roBase+mem.Addr(4*ownWords))
				m.Launch(kernel, numTBs, threads)
				if err := m.Err(); err != nil {
					t.Fatal(err)
				}
				for tb := 0; tb < numTBs; tb++ {
					for i := 0; i < ownWords; i++ {
						if got := m.Read(ownAddr(tb, i)); got != refOwn[tb*ownWords+i] {
							t.Fatalf("seed %d: own[%d][%d] = %d, want %d", seed, tb, i, got, refOwn[tb*ownWords+i])
						}
					}
				}
				for i := 0; i < sharedWords; i++ {
					if got := m.Read(sharedBase + mem.Addr(4*i)); got != refShared[i] {
						t.Fatalf("seed %d: shared[%d] = %d, want %d", seed, i, got, refShared[i])
					}
				}
			})
		}
	}
}

// TestRandomProgramsWithLocalScopes adds locally scoped locks guarding
// per-CU shared data, exercising the HRF paths of GH and DH while
// remaining correct under DRF (which ignores the annotation).
func TestRandomProgramsWithLocalScopes(t *testing.T) {
	const (
		threads = 32
		iters   = 6
	)
	lockBase := mem.Addr(0x400000)
	dataBase := mem.Addr(0x500000)

	kernel := func(c *workload.Ctx) {
		lock := lockBase + mem.Addr(64*c.CU)
		data := dataBase + mem.Addr(256*c.CU)
		for i := 0; i < iters; i++ {
			for c.AtomicCAS(lock, 0, 1, coherence.ScopeLocal) != 0 {
				c.Compute(7)
			}
			// Two dependent updates: torn visibility would corrupt them.
			a := c.Load(data)
			c.Store(data, a+1)
			c.Store(data+4, a+1)
			c.AtomicStore(lock, 0, coherence.ScopeLocal)
		}
	}
	for _, cfg := range machine.AllConfigs() {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			m := machine.New(cfg)
			m.Launch(kernel, 45, threads)
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}
			for cu := 0; cu < 15; cu++ {
				data := dataBase + mem.Addr(256*cu)
				want := uint32(3 * iters)
				if got := m.Read(data); got != want {
					t.Fatalf("CU %d counter = %d, want %d", cu, got, want)
				}
				if got := m.Read(data + 4); got != want {
					t.Fatalf("CU %d shadow = %d, want %d (torn critical section)", cu, got, want)
				}
			}
		})
	}
}
