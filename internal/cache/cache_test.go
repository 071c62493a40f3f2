package cache

import (
	"testing"
	"testing/quick"

	"denovogpu/internal/mem"
)

func TestNewGeometry(t *testing.T) {
	c := New(32*1024, 8, Keep{}) // the paper's L1
	if c.Sets() != 64 || c.Ways() != 8 {
		t.Fatalf("32KB 8-way: sets=%d ways=%d, want 64/8", c.Sets(), c.Ways())
	}
}

func TestNewBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two sets should panic")
		}
	}()
	New(3*1024, 8, Keep{})
}

func TestLookupMissThenFill(t *testing.T) {
	c := New(8*1024, 4, Keep{})
	l := mem.Line(42)
	if c.Lookup(l) != nil {
		t.Fatal("empty cache should miss")
	}
	e := c.Victim(l)
	if e == nil {
		t.Fatal("empty cache must offer a victim")
	}
	e.Reset(l)
	e.State[3] = Valid
	e.Data[3] = 99
	got := c.Lookup(l)
	if got == nil || got.Data[3] != 99 || got.State[3] != Valid {
		t.Fatal("fill not visible")
	}
}

func TestVictimPrefersExistingThenFreeThenLRU(t *testing.T) {
	c := New(4*mem.LineBytes*2, 2, Keep{}) // 4 sets, 2 ways
	// Two lines mapping to the same set (stride = sets).
	stride := mem.Line(c.Sets())
	a, b, d := mem.Line(0), stride, 2*stride
	ea := c.Victim(a)
	ea.Reset(a)
	c.Touch(ea)
	eb := c.Victim(b)
	if eb == ea {
		t.Fatal("victim should prefer a free frame over evicting")
	}
	eb.Reset(b)
	c.Touch(eb)
	// Same line again: must return its own frame.
	if c.Victim(a) != ea {
		t.Fatal("victim for resident line must be its own frame")
	}
	// Set full: LRU is a (touched first).
	c.Lookup(b) // make b more recent
	if v := c.Victim(d); v != ea {
		t.Fatal("victim should pick LRU frame")
	}
}

func TestVictimSkipsPinned(t *testing.T) {
	c := New(2*mem.LineBytes*2, 2, Keep{}) // 2 sets, 2 ways
	stride := mem.Line(c.Sets())
	e0 := c.Victim(0)
	e0.Reset(0)
	e0.Pinned = true
	e1 := c.Victim(stride)
	e1.Reset(stride)
	e1.Pinned = true
	if c.Victim(2*stride) != nil {
		t.Fatal("all-pinned set must yield no victim")
	}
	e1.Pinned = false
	if c.Victim(2*stride) != e1 {
		t.Fatal("unpinned frame should become the victim")
	}
}

func TestInvalidateFlash(t *testing.T) {
	c := New(8*1024, 4, Keep{})
	for i := 0; i < 10; i++ {
		e := c.Victim(mem.Line(i))
		e.Reset(mem.Line(i))
		e.State[0] = Valid
		e.State[1] = Registered
	}
	n := c.Invalidate()
	if n != 20 {
		t.Fatalf("flash invalidated %d words, want 20", n)
	}
	if c.CountWords(Valid)+c.CountWords(Registered) != 0 {
		t.Fatal("flash left live words")
	}
	if c.Lookup(mem.Line(3)) != nil {
		t.Fatal("fully invalid frames should be untagged")
	}
}

func TestInvalidateKeepsRegistered(t *testing.T) {
	c := New(8*1024, 4, Keep{Owned: true})
	e := c.Victim(mem.Line(5))
	e.Reset(mem.Line(5))
	e.State[0] = Valid
	e.State[1] = Registered
	e.Data[1] = 7
	n := c.Invalidate()
	if n != 1 {
		t.Fatalf("invalidated %d, want 1 (only the Valid word)", n)
	}
	got := c.Lookup(mem.Line(5))
	if got == nil || got.State[1] != Registered || got.Data[1] != 7 {
		t.Fatal("DeNovo acquire must keep registered (owned) words")
	}
	if got.State[0] != Invalid {
		t.Fatal("valid word should have been invalidated")
	}
}

func TestEntryMaskOf(t *testing.T) {
	var e Entry
	e.Reset(mem.Line(1))
	e.State[2] = Valid
	e.State[7] = Registered
	e.State[8] = Registered
	if e.MaskOf(Registered) != mem.Bit(7)|mem.Bit(8) {
		t.Fatal("MaskOf(Registered) wrong")
	}
	if e.MaskOf(Valid) != mem.Bit(2) {
		t.Fatal("MaskOf(Valid) wrong")
	}
}

// Property: after filling k distinct lines into an empty large cache,
// all are resident (no premature evictions while capacity remains).
func TestNoSpuriousEvictionProperty(t *testing.T) {
	f := func(seeds []uint16) bool {
		c := New(32*1024, 8, Keep{})
		seen := map[mem.Line]bool{}
		for _, s := range seeds {
			l := mem.Line(s % 256) // 256 distinct lines fit easily in 512 frames
			if seen[l] {
				continue
			}
			seen[l] = true
			e := c.Victim(l)
			if e == nil {
				return false
			}
			if e.Tag && e.Line != l && len(seen) <= c.Sets() {
				// Should never evict while whole cache has room per set;
				// with uniform small lines per set this won't trigger.
				return false
			}
			e.Reset(l)
			e.State[0] = Valid
			c.Touch(e)
		}
		for l := range seen {
			if c.Peek(l) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// allocatedFrames counts the frames a cache has handed out at least
// once, and the frames it has carved from slabs.
func allocatedFrames(c *Cache) (used, carved int) {
	for _, k := range c.frames {
		if k != 0 {
			used++
		}
	}
	return used, len(c.slabs) * slabFrames
}

// TestCacheAllocatesTouchedFrames: a cache holds frames only for the
// lines it was asked to place, at most one slab past them, and a line
// that evicts another reuses the victim's frame. Hits allocate nothing.
func TestCacheAllocatesTouchedFrames(t *testing.T) {
	c := New(32*1024, 8, Keep{}) // 512 frames
	if used, carved := allocatedFrames(c); used != 0 || carved != 0 {
		t.Fatalf("a new cache holds %d frames (%d carved), want none", used, carved)
	}
	const n = 37
	var first *Entry
	for l := mem.Line(0); l < n; l++ {
		e := c.Victim(l)
		e.Reset(l)
		e.State[0] = Valid
		c.Touch(e)
		if l == 0 {
			first = e
		}
	}
	if c.Peek(0) != first {
		t.Fatal("a frame moved when later slabs were carved")
	}
	used, carved := allocatedFrames(c)
	if used != n || carved > n+slabFrames {
		t.Fatalf("%d distinct lines allocated %d frames (%d carved), want %d (at most %d carved)", n, used, carved, n, n+slabFrames)
	}

	// Twenty lines of one set share its eight ways.
	stride := mem.Line(c.Sets())
	for k := mem.Line(1); k <= 20; k++ {
		l := n + k*stride
		e := c.Victim(l)
		e.Reset(l)
		e.State[0] = Valid
		c.Touch(e)
	}
	if used, _ := allocatedFrames(c); used > n+c.Ways() {
		t.Fatalf("after evicting within one set the cache holds %d frames, want at most %d", used, n+c.Ways())
	}

	if a := testing.AllocsPerRun(100, func() {
		for l := mem.Line(0); l < n; l++ {
			if c.Lookup(l) == nil {
				t.Fatalf("line %d missed", l)
			}
			c.Peek(l)
		}
	}); a != 0 {
		t.Fatalf("Lookup and Peek allocated %v times per pass, want 0", a)
	}
}

// TestVictimHandsOutFreshFramesInWayOrder: frames never handed out
// count as untagged, so a set fills way 0 first, then way 1, and so
// on, and an untagged frame in an earlier way wins over a fresh one.
func TestVictimHandsOutFreshFramesInWayOrder(t *testing.T) {
	c := New(4*mem.LineBytes*4, 4, Keep{}) // 4 sets, 4 ways
	stride := mem.Line(c.Sets())
	for k := 0; k < 3; k++ {
		l := mem.Line(k) * stride
		e := c.Victim(l)
		if e != c.entry(c.frames[k]) {
			t.Fatalf("line %d got way %d's slot, want way %d", l, frameIndex(c, e), k)
		}
		e.Reset(l)
		e.State[0] = Valid
	}
	c.entry(c.frames[1]).State[0] = Invalid
	c.entry(c.frames[1]).Prune()
	if e := c.Victim(3 * stride); e != c.entry(c.frames[1]) {
		t.Fatalf("Victim picked frame %d, want the untagged way 1 before the fresh way 3", frameIndex(c, e))
	}
	if c.entry(c.frames[3]) != nil {
		t.Fatal("way 3 was allocated though Victim did not hand it out")
	}
}
