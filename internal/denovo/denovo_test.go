package denovo

import (
	"testing"

	"denovogpu/internal/cache"
	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
	"denovogpu/internal/noc"
	"denovogpu/internal/testrig"
)

func newCtl(r *testrig.Rig, node noc.NodeID, opts Options) *Controller {
	return New(node, r.Eng, r.Mesh, r.Stats, r.Meter, 32*1024, 8, 256, opts)
}

func TestWriteObtainsOwnership(t *testing.T) {
	r := testrig.New()
	c := newCtl(r, 0, Options{})
	w := mem.Addr(0x40).WordOf()
	var data [mem.WordsPerLine]uint32
	data[w.Index()] = 55
	done := false
	r.Eng.Schedule(0, func() {
		c.WriteLine(w.LineOf(), mem.Bit(w.Index()), data, func() {
			c.Release(coherence.ScopeGlobal, func() { done = true })
		})
	})
	r.Run(t)
	if !done {
		t.Fatal("release did not complete")
	}
	if st := c.CacheWordState(w); st != cache.Registered {
		t.Fatalf("word state %v after write, want Registered", st)
	}
	if r.Owner(w) != 0 {
		t.Fatalf("registry owner %d, want 0", r.Owner(w))
	}
	if c.StoreBufferLen() != 0 {
		t.Fatal("store buffer should drain on registration")
	}
	// DeNovo release moves no data: the L2 copy is stale, ownership
	// makes the L1 copy authoritative.
	if r.Stats.Get("l2.writethroughs") != 0 {
		t.Fatal("DeNovo must not writethrough data")
	}
}

func TestRegisteredWriteHitsNoTraffic(t *testing.T) {
	r := testrig.New()
	c := newCtl(r, 0, Options{})
	w := mem.Addr(0x40).WordOf()
	var data [mem.WordsPerLine]uint32
	data[w.Index()] = 1
	r.Eng.Schedule(0, func() {
		c.WriteLine(w.LineOf(), mem.Bit(w.Index()), data, func() {
			c.Release(coherence.ScopeGlobal, func() {
				sent := r.Mesh.Sent()
				data[w.Index()] = 2
				c.WriteLine(w.LineOf(), mem.Bit(w.Index()), data, func() {
					if r.Mesh.Sent() != sent {
						t.Error("write to owned word generated traffic")
					}
				})
			})
		})
	})
	r.Run(t)
	if got := r.Stats.Get("l1.write_hits"); got != 1 {
		t.Fatalf("write hits = %d, want 1", got)
	}
	if v, _ := c.PeekWord(w); v != 2 {
		t.Fatalf("owned word value %d, want 2", v)
	}
}

func TestAcquireKeepsRegisteredWords(t *testing.T) {
	r := testrig.New()
	c := newCtl(r, 0, Options{})
	wr := mem.Addr(0x40).WordOf()  // we write (and own) this
	rd := mem.Addr(0x800).WordOf() // we only read this
	r.Backing.Write(rd, 9)
	var data [mem.WordsPerLine]uint32
	data[wr.Index()] = 3
	r.Eng.Schedule(0, func() {
		c.WriteLine(wr.LineOf(), mem.Bit(wr.Index()), data, func() {
			c.Release(coherence.ScopeGlobal, func() {
				c.ReadLine(rd.LineOf(), mem.Bit(rd.Index()), func([mem.WordsPerLine]uint32) {
					c.Acquire(coherence.ScopeGlobal)
					if c.CacheWordState(wr) != cache.Registered {
						t.Error("acquire invalidated a registered word")
					}
					if c.CacheWordState(rd) != cache.Invalid {
						t.Error("acquire must invalidate valid (non-owned) words")
					}
				})
			})
		})
	})
	r.Run(t)
}

func TestReadOnlyRegionSurvivesAcquire(t *testing.T) {
	r := testrig.New()
	ro := mem.Addr(0x800).WordOf()
	c := newCtl(r, 0, Options{ReadOnly: func(w mem.Word) bool { return w == ro }})
	other := mem.Addr(0x1000).WordOf()
	r.Backing.Write(ro, 1)
	r.Backing.Write(other, 2)
	r.Eng.Schedule(0, func() {
		c.ReadLine(ro.LineOf(), mem.Bit(ro.Index()), func([mem.WordsPerLine]uint32) {
			c.ReadLine(other.LineOf(), mem.Bit(other.Index()), func([mem.WordsPerLine]uint32) {
				c.Acquire(coherence.ScopeGlobal)
				if c.CacheWordState(ro) != cache.Valid {
					t.Error("read-only word must survive acquire (DD+RO)")
				}
				if c.CacheWordState(other) != cache.Invalid {
					t.Error("non-RO valid word must be invalidated")
				}
			})
		})
	})
	r.Run(t)
}

func TestSyncRegistersAndHits(t *testing.T) {
	r := testrig.New()
	c := newCtl(r, 0, Options{})
	w := mem.Addr(0x2000).WordOf()
	r.Backing.Write(w, 10)
	r.Eng.Schedule(0, func() {
		c.Atomic(coherence.AtomicAdd, w, 1, 0, coherence.ScopeGlobal, func(old uint32) {
			if old != 10 {
				t.Errorf("first sync old = %d, want 10", old)
			}
			sent := r.Mesh.Sent()
			c.Atomic(coherence.AtomicAdd, w, 1, 0, coherence.ScopeGlobal, func(old uint32) {
				if old != 11 {
					t.Errorf("second sync old = %d, want 11", old)
				}
				if r.Mesh.Sent() != sent {
					t.Error("sync hit on owned variable generated traffic")
				}
			})
		})
	})
	r.Run(t)
	if r.Stats.Get("l1.sync_misses") != 1 || r.Stats.Get("l1.sync_hits") != 1 {
		t.Fatalf("sync miss/hit = %d/%d, want 1/1",
			r.Stats.Get("l1.sync_misses"), r.Stats.Get("l1.sync_hits"))
	}
}

func TestSyncOwnershipMigratesBetweenCUs(t *testing.T) {
	r := testrig.New()
	c0 := newCtl(r, 0, Options{})
	c1 := newCtl(r, 1, Options{})
	w := mem.Addr(0x2000).WordOf()
	r.Eng.Schedule(0, func() {
		c0.Atomic(coherence.AtomicAdd, w, 1, 0, coherence.ScopeGlobal, func(uint32) {
			c1.Atomic(coherence.AtomicAdd, w, 1, 0, coherence.ScopeGlobal, func(old uint32) {
				if old != 1 {
					t.Errorf("migrated sync sees %d, want 1", old)
				}
			})
		})
	})
	r.Run(t)
	if r.Owner(w) != 1 {
		t.Fatalf("owner = %d, want 1 after migration", r.Owner(w))
	}
	if c0.CacheWordState(w) != cache.Invalid {
		t.Fatal("previous owner must invalidate on transfer")
	}
	if r.Stats.Get("l1.ownership_transfers") != 1 {
		t.Fatalf("transfers = %d, want 1", r.Stats.Get("l1.ownership_transfers"))
	}
}

func TestDistributedQueueUnderContention(t *testing.T) {
	r := testrig.New()
	var ctls []*Controller
	const n = 8
	for i := 0; i < n; i++ {
		ctls = append(ctls, newCtl(r, noc.NodeID(i), Options{}))
	}
	w := mem.Addr(0x2000).WordOf()
	done := 0
	r.Eng.Schedule(0, func() {
		for _, c := range ctls {
			c.Atomic(coherence.AtomicAdd, w, 1, 0, coherence.ScopeGlobal, func(uint32) { done++ })
		}
	})
	r.Run(t)
	if done != n {
		t.Fatalf("%d atomics completed, want %d", done, n)
	}
	if got := r.L2Word(w); got != 0 {
		// Value lives at the final owner, not L2.
		t.Logf("L2 copy stale as expected (%d)", got)
	}
	// Sum must be exactly n at the final owner.
	final := r.Owner(w)
	if v, ok := ctls[final].PeekWord(w); !ok || v != n {
		t.Fatalf("final value %d at owner %d, want %d — racy registrations lost updates", v, final, n)
	}
}

func TestSameCUCoalescingServicedBeforeRemote(t *testing.T) {
	r := testrig.New()
	c0 := newCtl(r, 0, Options{})
	c1 := newCtl(r, 1, Options{})
	w := mem.Addr(0x2000).WordOf()
	var order []string
	r.Eng.Schedule(0, func() {
		// Two sync ops from CU0 (will coalesce in the MSHR), one from CU1.
		c0.Atomic(coherence.AtomicAdd, w, 1, 0, coherence.ScopeGlobal, func(uint32) { order = append(order, "cu0a") })
		c0.Atomic(coherence.AtomicAdd, w, 1, 0, coherence.ScopeGlobal, func(uint32) { order = append(order, "cu0b") })
	})
	// CU1's request lands while CU0's is in flight, forming the queue.
	r.Eng.Schedule(5, func() {
		c1.Atomic(coherence.AtomicAdd, w, 1, 0, coherence.ScopeGlobal, func(uint32) { order = append(order, "cu1") })
	})
	r.Run(t)
	if len(order) != 3 {
		t.Fatalf("completions = %v", order)
	}
	if order[0] != "cu0a" || order[1] != "cu0b" || order[2] != "cu1" {
		t.Fatalf("same-CU waiters must be serviced before the queued remote: %v", order)
	}
	if r.Stats.Get("l1.sync_coalesced") != 1 {
		t.Fatalf("coalesced = %d, want 1", r.Stats.Get("l1.sync_coalesced"))
	}
	if v, ok := c1.PeekWord(w); !ok || v != 3 {
		t.Fatalf("final value %d, want 3", v)
	}
}

func TestReadMissForwardedToOwner(t *testing.T) {
	r := testrig.New()
	c0 := newCtl(r, 0, Options{})
	c1 := newCtl(r, 5, Options{})
	w := mem.Addr(0x40).WordOf()
	var data [mem.WordsPerLine]uint32
	data[w.Index()] = 77
	r.Eng.Schedule(0, func() {
		c0.WriteLine(w.LineOf(), mem.Bit(w.Index()), data, func() {
			c0.Release(coherence.ScopeGlobal, func() {
				c1.ReadLine(w.LineOf(), mem.Bit(w.Index()), func(v [mem.WordsPerLine]uint32) {
					if v[w.Index()] != 77 {
						t.Errorf("remote read %d, want 77 (must come from owner L1)", v[w.Index()])
					}
				})
			})
		})
	})
	r.Run(t)
	if r.Stats.Get("l2.read_forwards") != 1 {
		t.Fatalf("read forwards = %d, want 1", r.Stats.Get("l2.read_forwards"))
	}
	if r.Stats.Get("l1.remote_reads_served") != 1 {
		t.Fatalf("remote reads served = %d, want 1", r.Stats.Get("l1.remote_reads_served"))
	}
	// Owner keeps ownership on a read.
	if r.Owner(w) != 0 {
		t.Fatal("data read must not steal ownership")
	}
}

func TestEvictionWritesBackRegisteredWords(t *testing.T) {
	r := testrig.New()
	// Tiny direct-mapped-ish cache: 2 sets, 1 way → eviction on 3rd line.
	c := New(0, r.Eng, r.Mesh, r.Stats, r.Meter, 2*mem.LineBytes, 1, 256, Options{})
	l0 := mem.Line(0)
	l2same := mem.Line(2) // maps to set 0 as well (2 sets)
	w := l0.Word(1)
	var d0, d1 [mem.WordsPerLine]uint32
	d0[1] = 11
	d1[1] = 22
	r.Eng.Schedule(0, func() {
		c.WriteLine(l0, mem.Bit(1), d0, func() {
			c.Release(coherence.ScopeGlobal, func() {
				c.WriteLine(l2same, mem.Bit(1), d1, func() {
					c.Release(coherence.ScopeGlobal, nil_or(t))
				})
			})
		})
	})
	r.Run(t)
	if r.Stats.Get("l1.writebacks") == 0 {
		t.Fatal("eviction of registered word must write back")
	}
	if r.Owner(w) != -1 {
		t.Fatalf("owner after writeback = %d, want memory", r.Owner(w))
	}
	if r.L2Word(w) != 11 {
		t.Fatalf("L2 value after writeback = %d, want 11", r.L2Word(w))
	}
	if !c.Drained() {
		t.Fatal("victim buffer should be empty after acks")
	}
}

func nil_or(t *testing.T) func() { return func() {} }

func TestLazyWritesDelayRegistration(t *testing.T) {
	r := testrig.New()
	c := newCtl(r, 0, Options{LazyWrites: true})
	w := mem.Addr(0x40).WordOf()
	var data [mem.WordsPerLine]uint32
	data[w.Index()] = 5
	r.Eng.Schedule(0, func() {
		c.WriteLine(w.LineOf(), mem.Bit(w.Index()), data, func() {
			if r.Mesh.Sent() != 0 {
				t.Error("lazy write must not generate traffic before release")
			}
			c.Release(coherence.ScopeLocal, func() {
				if r.Mesh.Sent() != 0 {
					t.Error("local release must not register lazy writes (DH)")
				}
				c.Release(coherence.ScopeGlobal, func() {
					if c.CacheWordState(w) != cache.Registered {
						t.Error("global release must register lazy writes")
					}
				})
			})
		})
	})
	r.Run(t)
	if r.Owner(w) != 0 {
		t.Fatal("lazy write never registered")
	}
}

func TestLocalAtomicNoOwnership(t *testing.T) {
	r := testrig.New()
	c := newCtl(r, 0, Options{LazyWrites: true})
	w := mem.Addr(0x2000).WordOf()
	r.Backing.Write(w, 100)
	r.Eng.Schedule(0, func() {
		c.Atomic(coherence.AtomicAdd, w, 1, 0, coherence.ScopeLocal, func(old uint32) {
			if old != 100 {
				t.Errorf("local atomic old = %d, want 100", old)
			}
			if r.Owner(w) != -1 {
				t.Error("local atomic must not obtain ownership eagerly (DH)")
			}
			c.Atomic(coherence.AtomicAdd, w, 1, 0, coherence.ScopeLocal, func(old uint32) {
				if old != 101 {
					t.Errorf("second local atomic old = %d, want 101", old)
				}
			})
		})
	})
	r.Run(t)
	if r.Stats.Get("l1.sync_local") != 2 {
		t.Fatalf("local syncs = %d, want 2", r.Stats.Get("l1.sync_local"))
	}
}

func TestConcurrentLocalAtomicsDoNotLoseUpdates(t *testing.T) {
	r := testrig.New()
	c := newCtl(r, 0, Options{LazyWrites: true})
	w := mem.Addr(0x2000).WordOf()
	done := 0
	r.Eng.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			c.Atomic(coherence.AtomicAdd, w, 1, 0, coherence.ScopeLocal, func(uint32) { done++ })
		}
	})
	r.Run(t)
	if done != 3 {
		t.Fatalf("completions = %d, want 3", done)
	}
	if v, ok := c.PeekWord(w); !ok || v != 3 {
		t.Fatalf("value %d, want 3 — concurrent local atomics lost updates", v)
	}
}

func TestWriteStallsWhenBufferFullThenCompletes(t *testing.T) {
	r := testrig.New()
	c := New(0, r.Eng, r.Mesh, r.Stats, r.Meter, 32*1024, 8, 2, Options{})
	done := 0
	r.Eng.Schedule(0, func() {
		for i := 0; i < 6; i++ {
			w := mem.Word(i * mem.WordsPerLine)
			var data [mem.WordsPerLine]uint32
			data[0] = uint32(i)
			c.WriteLine(w.LineOf(), mem.Bit(0), data, func() { done++ })
		}
	})
	r.Run(t)
	if done != 6 {
		t.Fatalf("%d writes completed, want 6", done)
	}
	if r.Stats.Get("sb.write_stalls") == 0 {
		t.Fatal("expected write stalls with a 2-entry buffer")
	}
	for i := 0; i < 6; i++ {
		w := mem.Word(i * mem.WordsPerLine)
		if v, ok := c.PeekWord(w); !ok || v != uint32(i) {
			t.Fatalf("word %d value %d (ok=%v), want %d", i, v, ok, i)
		}
	}
}

func TestBatchedRegistrationOneRequestPerLine(t *testing.T) {
	r := testrig.New()
	c := newCtl(r, 0, Options{})
	l := mem.Line(4)
	var data [mem.WordsPerLine]uint32
	for i := range data {
		data[i] = uint32(i)
	}
	r.Eng.Schedule(0, func() {
		c.WriteLine(l, mem.AllWords, data, func() {})
	})
	r.Run(t)
	if got := r.Stats.Get("l1.reg_requests"); got != 1 {
		t.Fatalf("reg requests = %d, want 1 (full-line write batches)", got)
	}
}

// A pinned frame whose last live word an acquire drops stays tagged;
// once unpinned, the next acquire untags it even though nothing else
// touched the line in between.
func TestPinnedEmptyFrameUntaggedAfterUnpin(t *testing.T) {
	r := testrig.New()
	c := newCtl(r, 0, Options{})
	w := mem.Addr(0x800).WordOf()
	l := w.LineOf()
	r.Backing.Write(w, 9)
	r.Eng.Schedule(0, func() {
		c.ReadLine(l, mem.Bit(w.Index()), func([mem.WordsPerLine]uint32) {
			c.lines.upsert(l).pins++ // as an outstanding transaction would
			c.pinFrame(l)
			c.Acquire(coherence.ScopeGlobal)
			if e := c.cache.Peek(l); e == nil || e.MaskOf(cache.Valid) != 0 {
				t.Error("a pinned frame must survive the acquire tagged, with no live word")
			}
			c.Acquire(coherence.ScopeGlobal)
			s := c.lines.ptr(l)
			if s.pins--; s.pins == 0 {
				c.unpinFrame(l)
			}
			c.lines.tidy(l, s)
			c.Acquire(coherence.ScopeGlobal)
			if c.cache.Peek(l) != nil {
				t.Error("the acquire after unpin must untag the empty frame")
			}
		})
	})
	r.Run(t)
	if got := r.Stats.Get("l1.invalidated_words"); got != mem.WordsPerLine {
		t.Fatalf("l1.invalidated_words = %d, want the filled line's %d", got, mem.WordsPerLine)
	}
}

// Revoking the read-only region makes the next acquire drop read-only
// words that earlier acquires spared, though no access touched them.
func TestReadOnlyRevokedInvalidatesSparedWords(t *testing.T) {
	r := testrig.New()
	ro := mem.Addr(0x800).WordOf()
	readOnly := true
	c := newCtl(r, 0, Options{ReadOnly: func(w mem.Word) bool { return readOnly && w.LineOf() == ro.LineOf() }})
	r.Backing.Write(ro, 1)
	r.Eng.Schedule(0, func() {
		c.ReadLine(ro.LineOf(), mem.Bit(ro.Index()), func([mem.WordsPerLine]uint32) {
			c.Acquire(coherence.ScopeGlobal)
			c.Acquire(coherence.ScopeGlobal)
			readOnly = false
			c.ReadOnlyRevoked()
			c.Acquire(coherence.ScopeGlobal)
		})
	})
	r.Run(t)
	if c.CacheWordState(ro) != cache.Invalid {
		t.Fatal("a revoked read-only word must not survive the next acquire")
	}
	if got := r.Stats.Get("l1.invalidated_words"); got != mem.WordsPerLine {
		t.Fatalf("l1.invalidated_words = %d, want the filled line's %d", got, mem.WordsPerLine)
	}
}
