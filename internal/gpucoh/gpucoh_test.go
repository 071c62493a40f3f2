package gpucoh

import (
	"testing"

	"denovogpu/internal/cache"
	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
	"denovogpu/internal/noc"
	"denovogpu/internal/sim"
	"denovogpu/internal/testrig"
)

func newCtl(r *testrig.Rig, node noc.NodeID) *Controller {
	return New(node, r.Eng, r.Mesh, r.Stats, r.Meter, 32*1024, 8, 256, false)
}

// newCtlH builds a GPU-H controller (per-word dirty partial blocks).
func newCtlH(r *testrig.Rig, node noc.NodeID) *Controller {
	return New(node, r.Eng, r.Mesh, r.Stats, r.Meter, 32*1024, 8, 256, true)
}

func TestReadMissFetchesFromL2(t *testing.T) {
	r := testrig.New()
	c := newCtl(r, 0)
	w := mem.Addr(0x1000).WordOf()
	r.Backing.Write(w, 1234)
	var got uint32
	var at sim.Time
	r.Eng.Schedule(0, func() {
		c.ReadLine(w.LineOf(), mem.Bit(w.Index()), func(v [mem.WordsPerLine]uint32) {
			got = v[w.Index()]
			at = r.Eng.Now()
		})
	})
	r.Run(t)
	if got != 1234 {
		t.Fatalf("read %d, want 1234", got)
	}
	// Cold miss: must include DRAM latency.
	if at < coherence.DRAMCycles {
		t.Fatalf("cold miss completed at %d, faster than DRAM", at)
	}
	if r.Stats.Get("l1.read_misses") != 1 || r.Stats.Get("l2.dram_fetches") != 1 {
		t.Fatalf("miss accounting wrong: %v misses, %v fetches",
			r.Stats.Get("l1.read_misses"), r.Stats.Get("l2.dram_fetches"))
	}
}

func TestReadHitAfterFill(t *testing.T) {
	r := testrig.New()
	c := newCtl(r, 0)
	w := mem.Addr(0x1000).WordOf()
	r.Backing.Write(w, 7)
	r.Eng.Schedule(0, func() {
		c.ReadLine(w.LineOf(), mem.Bit(w.Index()), func([mem.WordsPerLine]uint32) {
			start := r.Eng.Now()
			c.ReadLine(w.LineOf(), mem.Bit(w.Index()), func(v [mem.WordsPerLine]uint32) {
				if v[w.Index()] != 7 {
					t.Errorf("hit value %d, want 7", v[w.Index()])
				}
				if r.Eng.Now()-start != coherence.L1HitCycles {
					t.Errorf("hit latency %d, want %d", r.Eng.Now()-start, coherence.L1HitCycles)
				}
			})
		})
	})
	r.Run(t)
	if r.Stats.Get("l1.read_hits") != 1 {
		t.Fatalf("hits = %d, want 1", r.Stats.Get("l1.read_hits"))
	}
}

func TestWriteBuffersAndForwards(t *testing.T) {
	r := testrig.New()
	c := newCtl(r, 0)
	w := mem.Addr(0x40).WordOf()
	var data [mem.WordsPerLine]uint32
	data[w.Index()] = 55
	r.Eng.Schedule(0, func() {
		c.WriteLine(w.LineOf(), mem.Bit(w.Index()), data, func() {
			// Store-to-load forwarding: read sees the buffered write.
			c.ReadLine(w.LineOf(), mem.Bit(w.Index()), func(v [mem.WordsPerLine]uint32) {
				if v[w.Index()] != 55 {
					t.Errorf("forwarded read %d, want 55", v[w.Index()])
				}
			})
		})
	})
	r.Run(t)
	if c.StoreBufferLen() != 1 {
		t.Fatalf("store buffer len %d, want 1 (write stays buffered until release)", c.StoreBufferLen())
	}
	// No writethrough yet: L2 still has the old value.
	if r.L2Word(w) != 0 {
		t.Fatal("write leaked to L2 before release")
	}
}

func TestReleaseDrainsCoalescedWritethroughs(t *testing.T) {
	r := testrig.New()
	c := newCtl(r, 0)
	l := mem.Line(4)
	var data [mem.WordsPerLine]uint32
	for i := range data {
		data[i] = uint32(i + 100)
	}
	done := false
	r.Eng.Schedule(0, func() {
		c.WriteLine(l, mem.AllWords, data, func() {
			c.Release(coherence.ScopeGlobal, func() { done = true })
		})
	})
	r.Run(t)
	if !done {
		t.Fatal("release did not complete")
	}
	for i := 0; i < mem.WordsPerLine; i++ {
		if got := r.L2Word(l.Word(i)); got != uint32(i+100) {
			t.Fatalf("L2 word %d = %d after release, want %d", i, got, i+100)
		}
	}
	// 16 words to one line must coalesce into a single writethrough.
	if got := r.Stats.Get("l1.writethroughs"); got != 1 {
		t.Fatalf("writethroughs = %d, want 1 (coalescing)", got)
	}
	if !c.Drained() {
		t.Fatal("controller not drained after release")
	}
}

func TestStoreBufferOverflowForcesWordWritethroughs(t *testing.T) {
	r := testrig.New()
	// Tiny 4-entry buffer.
	c := New(0, r.Eng, r.Mesh, r.Stats, r.Meter, 32*1024, 8, 4, false)
	r.Eng.Schedule(0, func() {
		var issue func(i int)
		issue = func(i int) {
			if i == 8 {
				return
			}
			var data [mem.WordsPerLine]uint32
			w := mem.Word(i * mem.WordsPerLine) // distinct lines
			data[0] = uint32(i)
			c.WriteLine(w.LineOf(), mem.Bit(0), data, func() { issue(i + 1) })
		}
		issue(0)
	})
	r.Run(t)
	if got := r.Stats.Get("sb.overflow_writethroughs"); got != 4 {
		t.Fatalf("overflow writethroughs = %d, want 4", got)
	}
}

func TestGlobalAtomicExecutesAtL2(t *testing.T) {
	r := testrig.New()
	c0 := newCtl(r, 0)
	c1 := newCtl(r, 1)
	w := mem.Addr(0x2000).WordOf()
	var r0, r1 uint32
	r.Eng.Schedule(0, func() {
		c0.Atomic(coherence.AtomicAdd, w, 1, 0, coherence.ScopeGlobal, func(old uint32) { r0 = old })
		c1.Atomic(coherence.AtomicAdd, w, 1, 0, coherence.ScopeGlobal, func(old uint32) { r1 = old })
	})
	r.Run(t)
	if r.L2Word(w) != 2 {
		t.Fatalf("L2 value %d after two atomicAdds, want 2", r.L2Word(w))
	}
	if !((r0 == 0 && r1 == 1) || (r0 == 1 && r1 == 0)) {
		t.Fatalf("atomic returns %d,%d: not a serialization of 0,1", r0, r1)
	}
	if r.Stats.Get("l2.atomics") != 2 {
		t.Fatalf("l2.atomics = %d, want 2", r.Stats.Get("l2.atomics"))
	}
}

func TestAcquireFlashInvalidates(t *testing.T) {
	r := testrig.New()
	c := newCtl(r, 0)
	w := mem.Addr(0x3000).WordOf()
	r.Backing.Write(w, 5)
	r.Eng.Schedule(0, func() {
		c.ReadLine(w.LineOf(), mem.Bit(w.Index()), func([mem.WordsPerLine]uint32) {
			if c.CacheWordState(w) != cache.Valid {
				t.Error("word not cached after fill")
			}
			c.Acquire(coherence.ScopeGlobal)
			if c.CacheWordState(w) != cache.Invalid {
				t.Error("global acquire must flash-invalidate the L1")
			}
		})
	})
	r.Run(t)
	if r.Stats.Get("l1.flash_invalidations") != 1 {
		t.Fatal("flash invalidation not counted")
	}
}

func TestLocalAcquireReleaseAreNoOps(t *testing.T) {
	r := testrig.New()
	c := newCtlH(r, 0)
	w := mem.Addr(0x3000).WordOf()
	r.Backing.Write(w, 5)
	r.Eng.Schedule(0, func() {
		c.ReadLine(w.LineOf(), mem.Bit(w.Index()), func([mem.WordsPerLine]uint32) {
			c.Acquire(coherence.ScopeLocal)
			if c.CacheWordState(w) != cache.Valid {
				t.Error("local acquire must not invalidate (GPU-H)")
			}
			var data [mem.WordsPerLine]uint32
			data[w.Index()] = 9
			c.WriteLine(w.LineOf(), mem.Bit(w.Index()), data, func() {
				c.Release(coherence.ScopeLocal, func() {
					if c.CacheWordState(w) != cache.Dirty {
						t.Error("local release must leave the word dirty in L1 (GPU-H)")
					}
				})
			})
		})
	})
	r.Run(t)
	if r.L2Word(w) == 9 {
		t.Fatal("locally released write must not reach L2")
	}
}

func TestLocalAtomicAtL1NoTraffic(t *testing.T) {
	r := testrig.New()
	c := newCtlH(r, 0)
	w := mem.Addr(0x4000).WordOf()
	r.Backing.Write(w, 10)
	var first uint32
	r.Eng.Schedule(0, func() {
		// First local atomic misses and fetches the line; after that,
		// further local atomics generate no network traffic.
		c.Atomic(coherence.AtomicAdd, w, 1, 0, coherence.ScopeLocal, func(old uint32) {
			first = old
			sent := r.Mesh.Sent()
			c.Atomic(coherence.AtomicAdd, w, 1, 0, coherence.ScopeLocal, func(old uint32) {
				if old != 11 {
					t.Errorf("second local atomic old = %d, want 11", old)
				}
				if r.Mesh.Sent() != sent {
					t.Error("local atomic hit generated network traffic")
				}
			})
		})
	})
	r.Run(t)
	if first != 10 {
		t.Fatalf("first local atomic old = %d, want 10", first)
	}
	if r.Stats.Get("l1.atomics_local") != 2 {
		t.Fatalf("local atomics = %d, want 2", r.Stats.Get("l1.atomics_local"))
	}
}

func TestLocalAtomicsSameWordSerialize(t *testing.T) {
	r := testrig.New()
	c := newCtlH(r, 0)
	w := mem.Addr(0x5000).WordOf()
	sum := 0
	r.Eng.Schedule(0, func() {
		// Two concurrent local atomics racing through the miss path must
		// not lose an update.
		for i := 0; i < 2; i++ {
			c.Atomic(coherence.AtomicAdd, w, 1, 0, coherence.ScopeLocal, func(uint32) { sum++ })
		}
	})
	r.Run(t)
	if sum != 2 {
		t.Fatalf("%d callbacks, want 2", sum)
	}
	if v, ok := c.PeekWord(w); !ok || v != 2 {
		t.Fatalf("word value %d (ok=%v), want 2 — lost update", v, ok)
	}
}

func TestPostAcquireReadDoesNotJoinStaleFill(t *testing.T) {
	r := testrig.New()
	c := newCtl(r, 0)
	w := mem.Addr(0x6000).WordOf()
	r.Backing.Write(w, 1)
	r.Eng.Schedule(0, func() {
		// Start a read, then immediately acquire (invalidate), then read
		// again: the second read must get its own fill, and the stale
		// fill must not install.
		c.ReadLine(w.LineOf(), mem.Bit(w.Index()), func([mem.WordsPerLine]uint32) {})
		c.Acquire(coherence.ScopeGlobal)
		c.ReadLine(w.LineOf(), mem.Bit(w.Index()), func(v [mem.WordsPerLine]uint32) {
			if v[w.Index()] != 1 {
				t.Errorf("post-acquire read %d, want 1", v[w.Index()])
			}
		})
	})
	r.Run(t)
	if got := r.Stats.Get("l1.fills_dropped_stale"); got != 1 {
		t.Fatalf("stale fills dropped = %d, want 1", got)
	}
	if got := r.Stats.Get("l2.dram_fetches"); got != 1 {
		t.Fatalf("dram fetches = %d, want 1 (same line)", got)
	}
}

func TestReleaseWithEmptyBufferCompletesFast(t *testing.T) {
	r := testrig.New()
	c := newCtl(r, 0)
	var at sim.Time
	r.Eng.Schedule(0, func() {
		c.Release(coherence.ScopeGlobal, func() { at = r.Eng.Now() })
	})
	r.Run(t)
	if at != coherence.L1HitCycles {
		t.Fatalf("empty release at %d, want %d", at, coherence.L1HitCycles)
	}
}

// TestInFlightWritethroughNotStale is a regression test: a fill that
// was requested before a write, arriving after the write's overflow
// writethrough left the store buffer, must not resurrect the pre-write
// value while the writethrough is still in flight.
func TestInFlightWritethroughNotStale(t *testing.T) {
	r := testrig.New()
	c := New(0, r.Eng, r.Mesh, r.Stats, r.Meter, 32*1024, 8, 1, false) // 1-entry buffer
	w := mem.Addr(0x40).WordOf()
	r.Backing.Write(w, 1) // old value
	r.Eng.Schedule(0, func() {
		// Read in flight (will return the old value and try to install it)...
		c.ReadLine(w.LineOf(), mem.Bit(w.Index()), func([mem.WordsPerLine]uint32) {})
		// ...write the word, then overflow the 1-entry buffer so the
		// write leaves as an in-flight writethrough...
		var d [mem.WordsPerLine]uint32
		d[w.Index()] = 2
		c.WriteLine(w.LineOf(), mem.Bit(w.Index()), d, func() {
			var d2 [mem.WordsPerLine]uint32
			d2[0] = 9
			c.WriteLine(mem.Line(99), mem.Bit(0), d2, func() {
				// ...and read it back after the stale fill has installed.
				r.Eng.Schedule(60, func() {
					c.ReadLine(w.LineOf(), mem.Bit(w.Index()), func(v [mem.WordsPerLine]uint32) {
						if v[w.Index()] != 2 {
							t.Errorf("read %d, want 2 — stale fill overtook in-flight writethrough", v[w.Index()])
						}
						c.Release(coherence.ScopeGlobal, func() {})
					})
				})
			})
		})
	})
	r.Run(t)
	if !c.Drained() {
		t.Fatal("controller should drain")
	}
}

// TestReentrantReleaseWaiter: a release waiter that writes and releases
// twice from inside its callback fires exactly once, neither release it
// starts is lost or fired early, and the waiter sharing its round still
// fires. Three rounds run so the recycled waiter storage is reused.
func TestReentrantReleaseWaiter(t *testing.T) {
	r := testrig.New()
	c := newCtl(r, 0)
	const rounds = 3
	var outer, sibling, inner, innerJoin [rounds]int
	line := func(round, k int) mem.Line { return mem.Line(10 + 2*round + k) }
	write := func(l mem.Line, v uint32) {
		var data [mem.WordsPerLine]uint32
		data[0] = v
		c.WriteLine(l, mem.Bit(0), data, func() {})
	}
	var round func(i int)
	round = func(i int) {
		if i == rounds {
			return
		}
		write(line(i, 0), uint32(100+i))
		c.Release(coherence.ScopeGlobal, func() {
			outer[i]++
			write(line(i, 1), uint32(200+i))
			c.Release(coherence.ScopeGlobal, func() {
				inner[i]++
				if innerJoin[i] != 0 {
					t.Errorf("round %d: joined inner waiter fired before the release it waits on", i)
				}
			})
			c.Release(coherence.ScopeGlobal, func() {
				innerJoin[i]++
				round(i + 1)
			})
		})
		// Joins the same round: the buffer is empty, but the first
		// release's writethrough is still outstanding.
		c.Release(coherence.ScopeGlobal, func() { sibling[i]++ })
	}
	r.Eng.Schedule(0, func() { round(0) })
	r.Run(t)
	for i := 0; i < rounds; i++ {
		if outer[i] != 1 || sibling[i] != 1 || inner[i] != 1 || innerJoin[i] != 1 {
			t.Fatalf("round %d: outer, sibling, inner, joined inner waiters fired %d, %d, %d, %d times, want 1 each",
				i, outer[i], sibling[i], inner[i], innerJoin[i])
		}
		for k, want := range []uint32{uint32(100 + i), uint32(200 + i)} {
			if got := r.L2Word(line(i, k).Word(0)); got != want {
				t.Fatalf("round %d: L2 word of line %d = %d, want %d", i, k, got, want)
			}
		}
	}
	if !c.Drained() {
		t.Fatal("controller not drained after the releases")
	}
}

// TestAtomicQueuesLiveOnlyWhileBusy: per-word atomic queues exist only
// while an atomic on the word is queued or in progress. Many distinct
// words, global and local, leave no entry behind once the controller
// drains, and a steady stream of atomics on one hot word allocates
// nothing.
func TestAtomicQueuesLiveOnlyWhileBusy(t *testing.T) {
	r := testrig.New()
	c := newCtlH(r, 0)
	c.EnableInvariantChecks()
	done := 0
	count := func(uint32) { done++ }
	const words = 200
	r.Eng.Schedule(0, func() {
		for i := 0; i < words; i++ {
			w := mem.Addr(0x10000 + 4*i).WordOf()
			scope := coherence.ScopeGlobal
			if i%2 == 0 {
				scope = coherence.ScopeLocal
			}
			// Two atomics per word, so every queue also holds a waiter.
			c.Atomic(coherence.AtomicAdd, w, 1, 0, scope, count)
			c.Atomic(coherence.AtomicAdd, w, 1, 0, scope, count)
		}
	})
	r.Run(t)
	if done != 2*words {
		t.Fatalf("%d atomics completed, want %d", done, 2*words)
	}
	if n := c.localAtomicQ.Len(); n != 0 {
		t.Fatalf("%d words keep a queue entry after every atomic completed, want 0", n)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	hot := mem.Addr(0x20000).WordOf()
	run := func() {
		c.Atomic(coherence.AtomicAdd, hot, 1, 0, coherence.ScopeLocal, count)
		r.Run(t)
	}
	run() // the first atomic fetches the line
	if a := testing.AllocsPerRun(100, run); a != 0 {
		t.Fatalf("a steady-state atomic on a hot word allocated %v times, want 0", a)
	}
	if n := c.localAtomicQ.Len(); n != 0 {
		t.Fatalf("the hot word keeps its queue entry after its atomics completed")
	}
	if v, ok := c.PeekWord(hot); !ok || v != 102 {
		t.Fatalf("hot word = %d (ok=%v), want 102", v, ok)
	}

	// A drained controller may hold no queue entry, empty or not.
	c.localAtomicQ.Upsert(uint64(hot))
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a drained controller holding an emptied queue entry")
	}
}
