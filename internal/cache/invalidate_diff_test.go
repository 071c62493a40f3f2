package cache

import (
	"math/bits"
	"math/rand"
	"testing"

	"denovogpu/internal/mem"
)

// refInvalidate is the full-walk invalidation the cache used before it
// tracked frames handed out since the last Invalidate: visit every
// tagged frame, drop the words keep rejects, untag frames left with no
// live word unless pinned.
func refInvalidate(c *Cache, keep func(e *Entry, w int) bool) int {
	n := 0
	for i := range c.frames {
		e := c.entry(c.frames[i])
		if e == nil || !e.Tag {
			continue
		}
		live := false
		for w := 0; w < mem.WordsPerLine; w++ {
			if e.State[w] == Invalid {
				continue
			}
			if keep(e, w) {
				live = true
				continue
			}
			e.State[w] = Invalid
			n++
		}
		if !live && !e.Pinned {
			e.Tag = false
		}
	}
	return n
}

// refForEach visits every tagged frame by scanning all of them.
func refForEach(c *Cache, fn func(e *Entry)) {
	for i := range c.frames {
		if e := c.entry(c.frames[i]); e != nil && e.Tag {
			fn(e)
		}
	}
}

func frameIndex(c *Cache, e *Entry) int {
	if e == nil {
		return -1
	}
	for i := range c.frames {
		if c.entry(c.frames[i]) == e {
			return i
		}
	}
	panic("entry is not a frame of this cache")
}

// TestInvalidateDifferential drives a cache and a full-walk reference
// through the same seeded operation sequences, under every Keep policy
// the protocols use, and compares every frame after every step.
func TestInvalidateDifferential(t *testing.T) {
	// roLimit is the read-only region [0, roLimit) in line units; some
	// steps revoke it (and Unsettle), the way ClearReadOnly does.
	var roLimit mem.Line
	ro := func(w mem.Word) bool { return w.LineOf() < roLimit }
	policies := []struct {
		name string
		keep Keep
		ref  func(e *Entry, w int) bool
	}{
		{"flash", Keep{}, func(*Entry, int) bool { return false }},
		{"owned", Keep{Owned: true}, func(e *Entry, w int) bool { return e.State[w] == Registered }},
		{"owned+ro", Keep{Owned: true, ReadOnly: ro}, func(e *Entry, w int) bool {
			return e.State[w] == Registered || ro(e.Line.Word(w))
		}},
		{"ro", Keep{ReadOnly: ro}, func(e *Entry, w int) bool { return ro(e.Line.Word(w)) }},
	}
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			for seed := int64(1); seed <= 40; seed++ {
				roLimit = 40
				rng := rand.New(rand.NewSource(seed))
				got := New(32*4*mem.LineBytes, 4, p.keep) // 32 sets x 4 ways: two bitmap words
				ref := New(32*4*mem.LineBytes, 4, Keep{})
				mutate := func(e *Entry, r int64) {
					pr := rand.New(rand.NewSource(r))
					for k := pr.Intn(3); k > 0; k-- {
						w := pr.Intn(mem.WordsPerLine)
						e.State[w] = WordState(pr.Intn(3))
						e.Data[w] = pr.Uint32()
					}
					if pr.Intn(5) == 0 {
						e.Pinned = !e.Pinned
					}
				}
				for step := 0; step < 400; step++ {
					l := mem.Line(rng.Intn(200))
					r := rng.Int63()
					var op string
					switch k := rng.Intn(20); {
					case k < 5:
						op = "lookup"
						a, b := got.Lookup(l), ref.Lookup(l)
						if ia, ib := frameIndex(got, a), frameIndex(ref, b); ia != ib {
							t.Fatalf("seed %d step %d: Lookup(%d) frame %d, reference %d", seed, step, l, ia, ib)
						}
						if a != nil && r%2 == 0 {
							mutate(a, r)
							mutate(b, r)
						}
					case k < 8:
						op = "peek"
						a, b := got.Peek(l), ref.Peek(l)
						if ia, ib := frameIndex(got, a), frameIndex(ref, b); ia != ib {
							t.Fatalf("seed %d step %d: Peek(%d) frame %d, reference %d", seed, step, l, ia, ib)
						}
						if a != nil {
							mutate(a, r)
							mutate(b, r)
						}
					case k < 13:
						op = "victim+reset"
						a, b := got.Victim(l), ref.Victim(l)
						if ia, ib := frameIndex(got, a), frameIndex(ref, b); ia != ib {
							t.Fatalf("seed %d step %d: Victim(%d) frame %d, reference %d", seed, step, l, ia, ib)
						}
						if a == nil {
							break
						}
						if !a.Tag || a.Line != l {
							a.Reset(l)
							b.Reset(l)
						}
						mutate(a, r)
						mutate(b, r)
						got.Touch(a)
						ref.Touch(b)
					case k < 15:
						op = "foreach"
						// Most walks are a GH release: owned words downgrade.
						downgrade := func(e *Entry) {
							for w := range e.State {
								if e.State[w] == Registered && r%3 != 0 {
									e.State[w] = Valid
								}
							}
						}
						var ia, ib []int
						got.ForEach(func(e *Entry) {
							ia = append(ia, frameIndex(got, e))
							downgrade(e)
						})
						refForEach(ref, func(e *Entry) {
							ib = append(ib, frameIndex(ref, e))
							downgrade(e)
						})
						if len(ia) != len(ib) {
							t.Fatalf("seed %d step %d: ForEach visited %v, reference %v", seed, step, ia, ib)
						}
						for i := range ia {
							if ia[i] != ib[i] {
								t.Fatalf("seed %d step %d: ForEach visited %v, reference %v", seed, step, ia, ib)
							}
						}
					case k < 19:
						op = "invalidate"
						if a, b := got.Invalidate(), refInvalidate(ref, p.ref); a != b {
							t.Fatalf("seed %d step %d: Invalidate dropped %d words, reference %d", seed, step, a, b)
						}
					default:
						op = "revoke-ro"
						roLimit = mem.Line(rng.Intn(int(roLimit) + 1))
						got.Unsettle()
					}
					for i := range got.frames {
						a, b := got.entry(got.frames[i]), ref.entry(ref.frames[i])
						if (a == nil) != (b == nil) {
							t.Fatalf("seed %d step %d (%s): frame %d allocated %v, reference %v", seed, step, op, i, a != nil, b != nil)
						}
						if a == nil {
							continue
						}
						if a.Tag != b.Tag || a.Pinned != b.Pinned || a.State != b.State || (a.Tag && a.Line != b.Line) {
							t.Fatalf("seed %d step %d (%s): frame %d = {tag %v pinned %v line %d %v}, reference {tag %v pinned %v line %d %v}",
								seed, step, op, i, a.Tag, a.Pinned, a.Line, a.State, b.Tag, b.Pinned, b.Line, b.State)
						}
					}
				}
			}
		})
	}
}

func popcount(bm []uint64) int {
	n := 0
	for _, w := range bm {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestInvalidateWalksTouchedFrames pins the cost model: Invalidate walks
// only frames handed out since the previous one, and ForEach walks only
// occupied frames.
func TestInvalidateWalksTouchedFrames(t *testing.T) {
	c := New(32*1024, 8, Keep{Owned: true})
	for l := mem.Line(0); l < 100; l++ {
		e := c.Victim(l)
		e.Reset(l)
		e.State[0] = Registered
		e.State[1] = Valid
	}
	if n := c.Invalidate(); n != 100 {
		t.Fatalf("first Invalidate dropped %d words, want 100", n)
	}
	if got := popcount(c.since); got != 0 {
		t.Fatalf("%d frames left marked after Invalidate, want 0", got)
	}
	for l := mem.Line(0); l < 3; l++ {
		c.Lookup(l).State[2] = Valid
	}
	if got := popcount(c.since); got != 3 {
		t.Fatalf("%d frames marked after 3 lookups, want 3", got)
	}
	if n := c.Invalidate(); n != 3 {
		t.Fatalf("second Invalidate dropped %d words, want 3", n)
	}
	if got := popcount(c.occ); got != 100 {
		t.Fatalf("occupancy bitmap has %d frames, want the 100 tagged", got)
	}
	visited := 0
	c.ForEach(func(*Entry) { visited++ })
	if visited != 100 || popcount(c.since) != 100 {
		t.Fatalf("ForEach visited %d frames and marked %d, want 100 and 100", visited, popcount(c.since))
	}
}

// TestPruneUntagsOnlyEmptyUnpinnedFrames covers the eager untag rule
// controllers apply after removing a frame's last live word.
func TestPruneUntagsOnlyEmptyUnpinnedFrames(t *testing.T) {
	var e Entry
	e.Reset(mem.Line(3))
	e.State[4] = Valid
	if e.Prune() || !e.Tag {
		t.Fatal("a frame with a Valid word must stay tagged")
	}
	e.State[4] = Invalid
	e.Pinned = true
	if e.Prune() || !e.Tag {
		t.Fatal("a pinned frame must stay tagged")
	}
	e.Pinned = false
	if !e.Prune() || e.Tag {
		t.Fatal("an empty unpinned frame must be untagged")
	}
}
