package denovo

import (
	"math/rand"
	"testing"

	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
	"denovogpu/internal/noc"
	"denovogpu/internal/sim"
	"denovogpu/internal/testrig"
)

// TestTinyCacheEvictionStress hammers ownership migration and eviction
// with deliberately tiny caches: 8 controllers performing random writes
// and syncs over a working set far larger than their L1s, forcing
// constant writebacks, victim-buffer races, and registry churn. The
// final memory image must match a sequential model per word (each word
// is only ever written by its designated "owner" controller — race-free
// data — while all controllers contend on shared sync words).
func TestTinyCacheEvictionStress(t *testing.T) {
	const (
		nodes    = 8
		words    = 512 // 32 KB working set vs 1 KB caches
		opsEach  = 300
		syncVars = 4
	)
	for _, seed := range []int64{3, 9} {
		r := testrig.New()
		var ctls []*Controller
		for i := 0; i < nodes; i++ {
			// 1 KB, 2-way: 8 sets — constant eviction.
			ctls = append(ctls, New(noc.NodeID(i), r.Eng, r.Mesh, r.Stats, r.Meter, 1024, 2, 16, Options{}))
		}
		rng := rand.New(rand.NewSource(seed))
		ref := make([]uint32, words)
		syncDone := 0
		dataBase := mem.Addr(0x10000)
		syncBase := mem.Addr(0x90000)

		// Each controller runs a script of writes to ITS OWN words
		// (word w belongs to controller w % nodes) and atomic adds to
		// shared sync vars.
		type step struct {
			isSync bool
			idx    int
			val    uint32
		}
		scripts := make([][]step, nodes)
		for n := 0; n < nodes; n++ {
			for k := 0; k < opsEach; k++ {
				if rng.Intn(4) == 0 {
					scripts[n] = append(scripts[n], step{isSync: true, idx: rng.Intn(syncVars)})
				} else {
					w := rng.Intn(words/nodes)*nodes + n // owned word
					v := rng.Uint32()
					scripts[n] = append(scripts[n], step{idx: w, val: v})
					ref[w] = v // last write wins; single writer per word
				}
			}
		}
		totalSyncs := 0
		for n := range scripts {
			for _, s := range scripts[n] {
				if s.isSync {
					totalSyncs++
				}
			}
		}

		for n := 0; n < nodes; n++ {
			n := n
			c := ctls[n]
			var run func(i int)
			run = func(i int) {
				if i == len(scripts[n]) {
					c.Release(coherence.ScopeGlobal, func() {})
					return
				}
				s := scripts[n][i]
				if s.isSync {
					c.Atomic(coherence.AtomicAdd, (syncBase + mem.Addr(64*s.idx)).WordOf(), 1, 0,
						coherence.ScopeGlobal, func(uint32) {
							syncDone++
							run(i + 1)
						})
					return
				}
				var data [mem.WordsPerLine]uint32
				w := dataBase + mem.Addr(4*s.idx)
				data[w.WordIndex()] = s.val
				c.WriteLine(w.LineOf(), mem.Bit(w.WordIndex()), data, func() { run(i + 1) })
			}
			r.Eng.Schedule(0, func() { run(0) })
		}
		r.Run(t)

		if syncDone != totalSyncs {
			t.Fatalf("seed %d: %d syncs completed, want %d", seed, syncDone, totalSyncs)
		}
		// Sync counters: sum across vars == totalSyncs.
		var sum uint32
		for i := 0; i < syncVars; i++ {
			w := (syncBase + mem.Addr(64*i)).WordOf()
			owner := r.Owner(w)
			if owner == -1 {
				sum += r.L2Word(w)
			} else if v, ok := ctls[owner].PeekWord(w); ok {
				sum += v
			} else {
				t.Fatalf("seed %d: sync var %d lost (owner %d has no copy)", seed, i, owner)
			}
		}
		if sum != uint32(totalSyncs) {
			t.Fatalf("seed %d: sync sum %d, want %d — lost atomic updates under eviction stress", seed, sum, totalSyncs)
		}
		// Data words: read coherently (owner L1 or L2).
		for w := 0; w < words; w++ {
			addr := (dataBase + mem.Addr(4*w)).WordOf()
			var got uint32
			if owner := r.Owner(addr); owner != -1 {
				v, ok := ctls[owner].PeekWord(addr)
				if !ok {
					t.Fatalf("seed %d: word %d registered at %d but missing", seed, w, owner)
				}
				got = v
			} else {
				got = r.L2Word(addr)
			}
			if got != ref[w] {
				t.Fatalf("seed %d: word %d = %d, want %d (eviction/writeback corrupted data)", seed, w, got, ref[w])
			}
		}
	}
}

// TestInvariantsHoldEveryCycle runs random scripts of reads, writes,
// global and (under DH's lazy writes) local atomics, acquires and
// releases, two thread blocks per controller on 6 controllers with tiny
// caches and store buffers, and checks every controller's
// quiesced-state suite — the line table's masks against its records,
// pins against registrations and reads, buffered words against delayed
// and registering ones, victim copies against their marks — whenever
// the clock advances, in both eager and lazy mode. At the end every
// controller must be drained with an empty line table.
func TestInvariantsHoldEveryCycle(t *testing.T) {
	const (
		nodes    = 6
		blocks   = 2
		words    = 384
		opsEach  = 300
		syncVars = 3
	)
	for _, lazy := range []bool{false, true} {
		for _, seed := range []int64{1, 2} {
			r := testrig.New()
			var ctls []*Controller
			for i := 0; i < nodes; i++ {
				ctls = append(ctls, New(noc.NodeID(i), r.Eng, r.Mesh, r.Stats, r.Meter, 1024, 2, 8, Options{LazyWrites: lazy}))
			}
			var firstErr error
			r.Eng.SetAdvanceHook(func(sim.Time) {
				for _, c := range ctls {
					if firstErr == nil {
						firstErr = c.CheckInvariants()
					}
				}
			})
			rng := rand.New(rand.NewSource(seed))
			dataBase, syncBase, localBase := mem.Addr(0x10000), mem.Addr(0x90000), mem.Addr(0xa0000)
			for n := 0; n < nodes*blocks; n++ {
				n, c := n, ctls[n%nodes]
				ops := make([]int, opsEach)
				for k := range ops {
					ops[k] = rng.Intn(1 << 20)
				}
				var run func(i int)
				run = func(i int) {
					if i == len(ops) {
						c.Release(coherence.ScopeGlobal, func() {})
						return
					}
					next := func() { run(i + 1) }
					x := ops[i]
					switch x % 9 {
					case 0:
						w := (syncBase + mem.Addr(64*(x/9%syncVars))).WordOf()
						c.Atomic(coherence.AtomicAdd, w, 1, 0, coherence.ScopeGlobal, func(uint32) { next() })
					case 1:
						// Block-private words: local scope needs no coherence.
						w := (localBase + mem.Addr(256*n+4*(x/9%4))).WordOf()
						c.Atomic(coherence.AtomicAdd, w, 1, 0, coherence.ScopeLocal, func(uint32) { next() })
					case 2:
						c.Acquire(coherence.ScopeGlobal)
						next()
					case 3:
						c.Release(coherence.ScopeGlobal, next)
					case 4:
						w := (syncBase + mem.Addr(64*(x/9%syncVars))).WordOf()
						c.ReadLine(w.LineOf(), mem.Bit(w.Index()), func([mem.WordsPerLine]uint32) { next() })
					case 5:
						w := (dataBase + mem.Addr(4*(x/9%words))).WordOf()
						c.ReadLine(w.LineOf(), mem.Bit(w.Index())|mem.WordMask(x>>12), func([mem.WordsPerLine]uint32) { next() })
					default:
						// Word k is written only by block k % (nodes*blocks).
						w := (dataBase + mem.Addr(4*((x/9%(words/nodes/blocks))*nodes*blocks+n))).WordOf()
						var data [mem.WordsPerLine]uint32
						data[w.Index()] = uint32(x)
						c.WriteLine(w.LineOf(), mem.Bit(w.Index()), data, next)
					}
				}
				r.Eng.Schedule(0, func() { run(0) })
			}
			r.Run(t)
			exercised := []string{"l1.writebacks", "l1.fwd_deferred", "l1.reads_deferred", "l1.sync_coalesced", "sb.release_drains"}
			if lazy {
				exercised = append(exercised, "sb.kicked_regs", "l1.sync_local")
			}
			for _, k := range exercised {
				if r.Stats.Get(k) == 0 {
					t.Errorf("lazy %v seed %d: the scripts never exercised %s", lazy, seed, k)
				}
			}
			if firstErr != nil {
				t.Fatalf("lazy %v seed %d: %v", lazy, seed, firstErr)
			}
			for _, c := range ctls {
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("lazy %v seed %d: at the end: %v", lazy, seed, err)
				}
				if !c.Drained() || c.lines.index.Len() != 0 {
					t.Fatalf("lazy %v seed %d: node %d not drained: sb %d, %d lines in the table", lazy, seed, c.node, c.sb.Len(), c.lines.index.Len())
				}
			}
		}
	}
}
