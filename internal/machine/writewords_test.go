package machine

import (
	"math/rand/v2"
	"testing"

	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
	"denovogpu/internal/workload"
)

// TestWriteWordsMatchesPerWordWrite diffs the host's bulk seeding path
// against one Write per word. Two machines run the same kernels; one
// takes each seeded, unaligned, line-crossing run through WriteWords,
// the other word by word. Before the runs, a store kernel registers
// words to L1s (DeNovo ownership the host write must steal) and a read
// kernel leaves clean copies in every L1 (stale once the host writes),
// with the region's first lines declared read-only. After every run
// both machines must agree with a reference image on every word's Read
// and with each other on PeekWord through every L1; a final copy
// kernel must read the reference values back under simulated time.
func TestWriteWordsMatchesPerWordWrite(t *testing.T) {
	const (
		threads  = 32
		numTBs   = 8
		words    = 1024 // the seeded region
		roWords  = 256  // [0, roWords) is declared read-only
		runs     = 40
		maxRun   = 40 // up to three lines per run
		region   = mem.Addr(0x40000)
		out      = mem.Addr(0x80000)
		chunks   = words / threads
		ownWords = numTBs * threads // stored by the store kernel, above roWords
	)
	word := func(i int) mem.Addr { return region + mem.Addr(4*i) }
	// store: TB tb writes its own 32 words at [roWords + 32*tb, ...).
	store := func(c *workload.Ctx) {
		base := word(roWords + threads*c.TB)
		vals := c.LoadStride(base)
		for i := range vals {
			vals[i] += uint32(c.TB) + 1
		}
		c.StoreStride(base, vals)
	}
	// read: every TB loads the whole region.
	read := func(c *workload.Ctx) {
		var buf []uint32
		for j := 0; j < chunks; j++ {
			buf = c.LoadStrideInto(buf, word(threads*j))
		}
	}
	// copyOut: the TBs copy the region's chunks to out between them.
	copyOut := func(c *workload.Ctx) {
		var buf []uint32
		for j := c.TB; j < chunks; j += numTBs {
			buf = c.LoadStrideInto(buf, word(threads*j))
			c.StoreStride(out+mem.Addr(4*threads*j), buf)
		}
	}

	for _, cc := range []struct {
		name string
		cfg  Config
	}{{"GD", GD()}, {"DD", DD()}, {"DD+RO", DDRO()}} {
		for _, seed := range []uint64{1, 2, 3} {
			bulk, perWord := New(cc.cfg), New(cc.cfg)
			both := []*Machine{bulk, perWord}
			rng := rand.New(rand.NewPCG(seed, 0x5eed))
			ref := make([]uint32, words)
			for i := range ref {
				ref[i] = rng.Uint32()
			}
			for _, m := range both {
				m.WriteWords(region, ref)
				m.SetReadOnly(region, word(roWords))
				m.Launch(store, numTBs, threads)
				m.Launch(read, numTBs, threads)
			}
			for i := 0; i < ownWords; i++ {
				ref[roWords+i] += uint32(i/threads) + 1
			}
			// check returns how many (L1, word) pairs hold a copy.
			check := func(step string) int {
				t.Helper()
				copies := 0
				for _, m := range both {
					if err := m.Err(); err != nil {
						t.Fatalf("%s seed %d, %s: %v", cc.name, seed, step, err)
					}
				}
				var l1b, l1p []coherence.L1
				bulk.eachL1(func(l1 coherence.L1) { l1b = append(l1b, l1) })
				perWord.eachL1(func(l1 coherence.L1) { l1p = append(l1p, l1) })
				for i, want := range ref {
					a := word(i)
					if gb, gp := bulk.Read(a), perWord.Read(a); gb != want || gp != want {
						t.Fatalf("%s seed %d, %s: word %d reads %#x bulk, %#x per-word, want %#x",
							cc.name, seed, step, i, gb, gp, want)
					}
					for k := range l1b {
						vb, okb := l1b[k].PeekWord(a.WordOf())
						vp, okp := l1p[k].PeekWord(a.WordOf())
						if vb != vp || okb != okp {
							t.Fatalf("%s seed %d, %s: L1 %d word %d peeks (%#x, %v) bulk, (%#x, %v) per-word",
								cc.name, seed, step, k, i, vb, okb, vp, okp)
						}
						if okb {
							copies++
						}
					}
				}
				return copies
			}
			if check("before the runs") == 0 {
				t.Fatalf("%s seed %d: no L1 holds a copy; the runs would invalidate nothing", cc.name, seed)
			}
			if cc.cfg.Protocol == ProtoDeNovo && countRegistered(bulk) == 0 {
				t.Fatalf("%s seed %d: no word registered; the runs would steal nothing", cc.name, seed)
			}
			seedRuns := func(lo int, phase string) {
				for r := 0; r < runs; r++ {
					n := 1 + rng.IntN(maxRun)
					first := lo + rng.IntN(words-lo-n+1)
					vals := make([]uint32, n)
					for i := range vals {
						vals[i] = rng.Uint32()
					}
					bulk.WriteWords(word(first), vals)
					for i, v := range vals {
						perWord.Write(word(first+i), v)
					}
					copy(ref[first:], vals)
					check(phase)
				}
			}
			// While the declaration stands the host writes outside it.
			seedRuns(roWords, "read-only declared")
			for _, m := range both {
				m.ClearReadOnly()
			}
			seedRuns(0, "read-only cleared")
			for _, m := range both {
				m.Launch(copyOut, numTBs, threads)
			}
			check("after the copy kernel")
			for i, want := range ref {
				a := out + mem.Addr(4*i)
				if gb, gp := bulk.Read(a), perWord.Read(a); gb != want || gp != want {
					t.Fatalf("%s seed %d: copied word %d is %#x bulk, %#x per-word, want %#x",
						cc.name, seed, i, gb, gp, want)
				}
			}
			if cb, cp := bulk.Stats().Cycles, perWord.Stats().Cycles; cb != cp {
				t.Errorf("%s seed %d: %d cycles bulk, %d per-word", cc.name, seed, cb, cp)
			}
		}
	}
}
