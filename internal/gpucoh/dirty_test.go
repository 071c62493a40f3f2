package gpucoh

import (
	"testing"

	"denovogpu/internal/cache"
	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
	"denovogpu/internal/testrig"
)

// Tests for GPU-H's per-word dirty (partial block) support.

func TestDirtyWriteAllocatesWithoutFetch(t *testing.T) {
	r := testrig.New()
	c := newCtlH(r, 0)
	w := mem.Addr(0x40).WordOf()
	var data [mem.WordsPerLine]uint32
	data[w.Index()] = 5
	r.Eng.Schedule(0, func() {
		c.WriteLine(w.LineOf(), mem.Bit(w.Index()), data, func() {})
	})
	r.Run(t)
	if c.CacheWordState(w) != cache.Dirty {
		t.Fatal("write should install a dirty word")
	}
	// No fetch, no writethrough: writes allocate with the dirty mask.
	if r.Mesh.Sent() != 0 {
		t.Fatalf("partial-block write sent %d messages, want 0", r.Mesh.Sent())
	}
	if r.Stats.Get("l2.dram_fetches") != 0 {
		t.Fatal("partial-block write must not fetch the line")
	}
}

func TestGlobalReleaseFlushesAndDowngrades(t *testing.T) {
	r := testrig.New()
	c := newCtlH(r, 0)
	l := mem.Line(4)
	var data [mem.WordsPerLine]uint32
	data[3] = 33
	data[7] = 77
	done := false
	r.Eng.Schedule(0, func() {
		c.WriteLine(l, mem.Bit(3)|mem.Bit(7), data, func() {
			c.Release(coherence.ScopeGlobal, func() { done = true })
		})
	})
	r.Run(t)
	if !done {
		t.Fatal("release incomplete")
	}
	if r.L2Word(l.Word(3)) != 33 || r.L2Word(l.Word(7)) != 77 {
		t.Fatal("dirty words not flushed to L2")
	}
	if c.CacheWordState(l.Word(3)) != cache.Valid {
		t.Fatal("flushed word should downgrade to Valid, not invalidate")
	}
	// One coalesced writethrough for the line's dirty words.
	if got := r.Stats.Get("l1.writethroughs"); got != 1 {
		t.Fatalf("writethroughs = %d, want 1", got)
	}
}

func TestGlobalAcquireKeepsDirtyWords(t *testing.T) {
	r := testrig.New()
	c := newCtlH(r, 0)
	dirty := mem.Addr(0x40).WordOf()
	clean := mem.Addr(0x2000).WordOf()
	r.Backing.Write(clean, 9)
	var data [mem.WordsPerLine]uint32
	data[dirty.Index()] = 1
	r.Eng.Schedule(0, func() {
		c.WriteLine(dirty.LineOf(), mem.Bit(dirty.Index()), data, func() {
			c.ReadLine(clean.LineOf(), mem.Bit(clean.Index()), func([mem.WordsPerLine]uint32) {
				c.Acquire(coherence.ScopeGlobal)
				if c.CacheWordState(dirty) != cache.Dirty {
					t.Error("global acquire must keep own dirty words")
				}
				if c.CacheWordState(clean) != cache.Invalid {
					t.Error("global acquire must invalidate clean words")
				}
			})
		})
	})
	r.Run(t)
}

func TestDirtyEvictionWritesThrough(t *testing.T) {
	r := testrig.New()
	// 2 sets x 1 way: the third line mapping to set 0 evicts the first.
	c := New(0, r.Eng, r.Mesh, r.Stats, r.Meter, 2*mem.LineBytes, 1, 256, true)
	l0, l2x := mem.Line(0), mem.Line(2)
	var d [mem.WordsPerLine]uint32
	d[1] = 11
	r.Eng.Schedule(0, func() {
		c.WriteLine(l0, mem.Bit(1), d, func() {
			d[1] = 22
			c.WriteLine(l2x, mem.Bit(1), d, func() {})
		})
	})
	r.Run(t)
	if r.Stats.Get("l1.dirty_evictions") != 1 {
		t.Fatalf("dirty evictions = %d, want 1", r.Stats.Get("l1.dirty_evictions"))
	}
	if r.L2Word(l0.Word(1)) != 11 {
		t.Fatal("evicted dirty word lost")
	}
	// The evicted word remains readable (in-flight writethrough).
	r.Eng.Schedule(0, func() {
		c.ReadLine(l0, mem.Bit(1), func(v [mem.WordsPerLine]uint32) {
			if v[1] != 11 {
				t.Errorf("read after dirty eviction = %d, want 11", v[1])
			}
		})
	})
	r.Run(t)
}

func TestDirtyWordNewerThanFill(t *testing.T) {
	r := testrig.New()
	c := newCtlH(r, 0)
	w := mem.Addr(0x40).WordOf()
	r.Backing.Write(w, 1) // stale
	r.Eng.Schedule(0, func() {
		// Fill in flight, then dirty write lands before the fill.
		c.ReadLine(w.LineOf(), mem.Bit(w.Index()), func([mem.WordsPerLine]uint32) {})
		var d [mem.WordsPerLine]uint32
		d[w.Index()] = 2
		c.WriteLine(w.LineOf(), mem.Bit(w.Index()), d, func() {})
	})
	r.Run(t)
	// The fill must not clobber the dirty word.
	r.Eng.Schedule(0, func() {
		c.ReadLine(w.LineOf(), mem.Bit(w.Index()), func(v [mem.WordsPerLine]uint32) {
			if v[w.Index()] != 2 {
				t.Errorf("read %d, want 2 — fill clobbered a dirty word", v[w.Index()])
			}
		})
	})
	r.Run(t)
	if v, ok := c.PeekWord(w); !ok || v != 2 {
		t.Fatalf("peek %d (ok=%v), want 2", v, ok)
	}
}

func TestLocalAtomicChainsOnDirtyWord(t *testing.T) {
	r := testrig.New()
	c := newCtlH(r, 0)
	w := mem.Addr(0x40).WordOf()
	sum := uint32(0)
	r.Eng.Schedule(0, func() {
		var d [mem.WordsPerLine]uint32
		d[w.Index()] = 100
		c.WriteLine(w.LineOf(), mem.Bit(w.Index()), d, func() {
			c.Atomic(coherence.AtomicAdd, w, 1, 0, coherence.ScopeLocal, func(old uint32) { sum = old })
		})
	})
	r.Run(t)
	if sum != 100 {
		t.Fatalf("local atomic on dirty word read %d, want 100", sum)
	}
	if v, _ := c.PeekWord(w); v != 101 {
		t.Fatalf("value %d, want 101", v)
	}
}

// A global release downgrades dirty words to Valid inside a frame the
// previous acquire left settled; the next acquire must still see and
// count them, with no access to the line in between.
func TestAcquireAfterReleaseInvalidatesDowngradedWords(t *testing.T) {
	r := testrig.New()
	c := newCtlH(r, 0)
	l := mem.Line(4)
	var data [mem.WordsPerLine]uint32
	data[3] = 33
	data[7] = 77
	r.Eng.Schedule(0, func() {
		c.WriteLine(l, mem.Bit(3)|mem.Bit(7), data, func() {
			c.Acquire(coherence.ScopeGlobal) // keeps both dirty words
			c.Release(coherence.ScopeGlobal, func() {
				c.Acquire(coherence.ScopeGlobal)
			})
		})
	})
	r.Run(t)
	if c.CacheWordState(l.Word(3)) != cache.Invalid || c.CacheWordState(l.Word(7)) != cache.Invalid {
		t.Fatal("acquire after a release must invalidate the downgraded words")
	}
	if got := r.Stats.Get("l1.invalidated_words"); got != 2 {
		t.Fatalf("l1.invalidated_words = %d, want 2", got)
	}
}
