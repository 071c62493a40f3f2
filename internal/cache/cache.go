// Package cache provides the storage structures shared by both L1
// protocol controllers: a set-associative sector cache with per-word
// coherence state, a write-combining coalescing store buffer, and a
// victim buffer for in-flight evictions.
//
// The sector organization follows the paper: tags and data transfer at
// 64-byte line granularity, coherence state at 4-byte word granularity
// (two bits per word suffice for DeNovo's three states; the GPU
// protocol uses only the valid bit of each word, all-or-nothing per
// line for GPU-D and per-word for GPU-H's partial blocks).
package cache

import (
	"fmt"
	"math/bits"

	"denovogpu/internal/mem"
)

// WordState is the per-word coherence state.
type WordState uint8

const (
	// Invalid: the word holds no usable data.
	Invalid WordState = iota
	// Valid: the word holds clean, readable data.
	Valid
	// Registered: this cache owns the word (DeNovo only); the copy is
	// up to date and writable, and the registry points here.
	Registered
)

// Dirty is the GPU-H partial-block state: the word was written locally
// and not yet flushed to the L2. It shares an encoding with Registered
// (both mean "this L1 holds the authoritative copy"), which is also how
// the paper's DD+RO reuses the spare state encoding.
const Dirty = Registered

func (s WordState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Valid:
		return "V"
	case Registered:
		return "R"
	default:
		return fmt.Sprintf("WordState(%d)", uint8(s))
	}
}

// Entry is one cache frame.
type Entry struct {
	Line  mem.Line
	Tag   bool // frame holds a line (any word state)
	State [mem.WordsPerLine]WordState
	Data  [mem.WordsPerLine]uint32
	// Pinned frames are ineligible for eviction (outstanding MSHR).
	Pinned bool
	lru    uint64
}

// MaskOf returns the mask of words in state s.
func (e *Entry) MaskOf(s WordState) mem.WordMask {
	var m mem.WordMask
	for i, w := range e.State {
		if w == s {
			m |= mem.Bit(i)
		}
	}
	return m
}

// Prune untags the frame if every word is Invalid and it is not pinned,
// the rule Invalidate applies to every frame it walks. It reports
// whether the frame was untagged.
func (e *Entry) Prune() bool {
	if e.Pinned || e.State != [mem.WordsPerLine]WordState{} {
		return false
	}
	e.Tag = false
	return true
}

// Reset clears the frame and retags it for line l.
func (e *Entry) Reset(l mem.Line) {
	e.Line = l
	e.Tag = true
	e.Pinned = false
	for i := range e.State {
		e.State[i] = Invalid
		e.Data[i] = 0
	}
}

// Keep is a cache's invalidation policy: the words Invalidate spares.
// It is fixed when the cache is built, so a frame Invalidate has walked
// stays settled until a controller touches it again.
type Keep struct {
	// Owned spares Registered (DeNovo) or Dirty (GPU-H) words.
	Owned bool
	// ReadOnly, when non-nil, spares every live word it reports true
	// for (DeNovo's read-only region). It must depend only on the
	// address; if the region it describes shrinks, call Unsettle.
	ReadOnly func(mem.Word) bool
}

func (k Keep) spares(e *Entry, w int) bool {
	return (k.Owned && e.State[w] == Registered) || (k.ReadOnly != nil && k.ReadOnly(e.Line.Word(w)))
}

// Cache is a set-associative sector cache.
type Cache struct {
	// setMask is the set count minus one (the count is a power of two).
	setMask uint64
	ways    int
	keep    Keep
	// frames[set*ways+way] is 0 until Victim first hands that frame
	// out, then 1 + the frame's index among the allocated ones; a frame
	// never handed out is untagged. Frames are carved from slabs,
	// chunks of slabFrames entries that are never reallocated, so
	// handed-out pointers stay valid and a cache costs the frames its
	// cell touches, not its size.
	frames []int32
	slabs  []*[slabFrames]Entry
	nalloc int32
	// One bit per frame in each bitmap, both set whenever a frame
	// pointer is handed out (Lookup, Peek, Victim, ForEach). Frames
	// change only through handed-out pointers, and no caller keeps one
	// across events.
	//
	// occ, walked by ForEach, is cleared only by Invalidate when it
	// finds the frame untagged: every tagged frame has its bit set
	// (frames are only tagged via Reset on a just-handed-out pointer).
	// A set bit in either bitmap names an allocated frame.
	//
	// since, walked and cleared by Invalidate, marks the frames handed
	// out since the last Invalidate. Every other frame holds only words
	// keep spares, so skipping it keeps the returned count exact.
	occ   []uint64
	since []uint64
	tick  uint64
}

// New returns a cache of the given total size and associativity with
// 64-byte lines and invalidation policy keep. Size must yield a
// power-of-two set count.
func New(sizeBytes, ways int, keep Keep) *Cache {
	lines := sizeBytes / mem.LineBytes
	sets := lines / ways
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets (size %d, ways %d) is not a power of two", sets, sizeBytes, ways))
	}
	words := (sets*ways + 63) / 64
	return &Cache{setMask: uint64(sets - 1), ways: ways, keep: keep, frames: make([]int32, sets*ways),
		occ: make([]uint64, words), since: make([]uint64, words)}
}

// slabFrames is how many frames one slab allocation carves.
const slabFrames = 16

// alloc installs a fresh untagged frame at idx.
func (c *Cache) alloc(idx int) *Entry {
	if c.nalloc%slabFrames == 0 {
		c.slabs = append(c.slabs, new([slabFrames]Entry))
	}
	c.nalloc++
	c.frames[idx] = c.nalloc
	return c.entry(c.nalloc)
}

// entry returns the frame a frames value names, nil for 0.
func (c *Cache) entry(k int32) *Entry {
	if k == 0 {
		return nil
	}
	return &c.slabs[(k-1)/slabFrames][(k-1)%slabFrames]
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

func (c *Cache) set(l mem.Line) (base int, set []int32) {
	s := int(uint64(l) & c.setMask)
	return s * c.ways, c.frames[s*c.ways : (s+1)*c.ways]
}

// mark records that frame idx was handed out.
func (c *Cache) mark(idx int) {
	c.occ[idx>>6] |= 1 << (idx & 63)
	c.since[idx>>6] |= 1 << (idx & 63)
}

// Lookup returns the frame holding l and bumps its recency, or nil.
func (c *Cache) Lookup(l mem.Line) *Entry {
	base, set := c.set(l)
	for i, k := range set {
		if e := c.entry(k); e != nil && e.Tag && e.Line == l {
			c.tick++
			e.lru = c.tick
			c.mark(base + i)
			return e
		}
	}
	return nil
}

// Peek returns the frame holding l without touching recency, or nil.
func (c *Cache) Peek(l mem.Line) *Entry {
	base, set := c.set(l)
	for i, k := range set {
		if e := c.entry(k); e != nil && e.Tag && e.Line == l {
			c.mark(base + i)
			return e
		}
	}
	return nil
}

// Victim returns the frame to use for line l: an existing frame for l,
// else an untagged frame, else the least recently used unpinned frame.
// It returns nil if every candidate is pinned (the caller must retry
// later). The returned frame is NOT reset; the caller must inspect its
// state (e.g. write back Registered words) before calling Reset. A
// frame never handed out before counts as untagged in way order, and
// is allocated here.
func (c *Cache) Victim(l mem.Line) *Entry {
	base, set := c.set(l)
	var lru *Entry
	freeIdx, lruIdx := -1, -1
	for i, k := range set {
		e := c.entry(k)
		if e != nil && e.Tag && e.Line == l {
			c.mark(base + i)
			return e
		}
		if e != nil && e.Pinned {
			continue
		}
		if e == nil || !e.Tag {
			if freeIdx < 0 {
				freeIdx = base + i
			}
			continue
		}
		if lru == nil || e.lru < lru.lru {
			lru, lruIdx = e, base+i
		}
	}
	if freeIdx >= 0 {
		c.mark(freeIdx)
		if e := c.entry(c.frames[freeIdx]); e != nil {
			return e
		}
		return c.alloc(freeIdx)
	}
	if lru != nil {
		c.mark(lruIdx)
	}
	return lru
}

// Touch bumps recency of a frame (used after fills).
func (c *Cache) Touch(e *Entry) {
	c.tick++
	e.lru = c.tick
}

// ForEach visits every tagged frame in deterministic (set, way) order.
// It walks the occupancy bitmap, so it costs the occupied frames, not
// the cache size, and marks each frame it hands out.
func (c *Cache) ForEach(fn func(e *Entry)) {
	for wi := range c.occ {
		for rem := c.occ[wi]; rem != 0; rem &= rem - 1 {
			i := wi<<6 + bits.TrailingZeros64(rem)
			if e := c.entry(c.frames[i]); e.Tag {
				c.mark(i)
				fn(e)
			}
		}
	}
}

// Invalidate applies the cache's Keep policy: every live word it does
// not spare becomes Invalid, and frames left with no live word are
// untagged (unless pinned). It returns the number of words invalidated.
// This implements both the GPU protocol's flash invalidation (keep
// nothing, or GPU-H's dirty words) and DeNovo's selective invalidation
// (keep Registered words, and optionally a read-only region).
//
// Only frames handed out since the previous Invalidate are walked: the
// rest already hold only spared words. In hardware this is a bulk clear
// of state bits; the walk costs the frames touched, not the cache size.
func (c *Cache) Invalidate() int {
	n := 0
	for wi, sw := range c.since {
		if sw == 0 {
			continue
		}
		c.since[wi] = 0
		for rem := sw; rem != 0; rem &= rem - 1 {
			i := wi<<6 + bits.TrailingZeros64(rem)
			if e := c.entry(c.frames[i]); e.Tag {
				for w := 0; w < mem.WordsPerLine; w++ {
					if e.State[w] != Invalid && !c.keep.spares(e, w) {
						e.State[w] = Invalid
						n++
					}
				}
				if !e.Prune() {
					continue
				}
			}
			c.occ[wi] &^= 1 << (i & 63)
		}
	}
	return n
}

// Unsettle marks every occupied frame for the next Invalidate. Call it
// when the Keep policy starts sparing fewer words (a read-only region
// was revoked), since frames settled under the wider policy may hold
// words the narrower one drops.
func (c *Cache) Unsettle() { copy(c.since, c.occ) }

// Stats-ish helpers used by tests.

// CountWords returns the number of words currently in state s.
func (c *Cache) CountWords(s WordState) int {
	n := 0
	for _, k := range c.frames {
		e := c.entry(k)
		if e == nil || !e.Tag {
			continue
		}
		for _, st := range e.State {
			if st == s {
				n++
			}
		}
	}
	return n
}
