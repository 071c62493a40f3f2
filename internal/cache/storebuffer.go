package cache

import (
	"fmt"

	"denovogpu/internal/mem"
	"denovogpu/internal/obs"
	"denovogpu/internal/wordmap"
)

// SBEntry is one store-buffer slot: a pending word write.
type SBEntry struct {
	Word mem.Word
	Val  uint32
}

// nilSlot terminates the intrusive slot list.
const nilSlot = int32(-1)

// sbWord is the index entry of one word: its buffered write, if any,
// and its writethroughs in flight. An entry exists only while one of
// the two does.
type sbWord struct {
	slot  int32  // pool slot of the buffered write, plus one; 0 for none
	wt    int32  // writethroughs of the word sent and not yet acked
	wtVal uint32 // the value the latest of them carries
}

// sbSlot is one pooled buffer slot, linked in insertion order.
type sbSlot struct {
	word       mem.Word
	val        uint32
	prev, next int32
}

// StoreBuffer is the 256-entry coalescing store buffer that sits next
// to each L1 (paper Table 3). Writes to a word already buffered
// coalesce into the existing slot; when the buffer is full the oldest
// slot is evicted to make room — that forced, one-at-a-time draining is
// exactly the effect the paper blames for LavaMD's and TB_LG's
// writethrough traffic under GPU coherence.
//
// Slots live in a fixed pool threaded by an intrusive doubly-linked
// list in insertion order, with a free list for recycling, so every
// operation — including Remove, which protocols call once per
// completed registration — is O(1) (plus the line walk on overflow)
// and iteration is O(live entries). An earlier slice-based FIFO left
// dead entries behind on Remove, making iteration O(total insert
// history); on registration-heavy workloads that was the simulator's
// single largest cost.
//
// The word index also tracks each word's writethroughs in flight to
// the L2 (WTSent, WTAcked) for GPU coherence, whose reads must see an
// in-flight value rather than a stale fill: one probe (Newest) answers
// both. In-flight words take no slot and are not counted by Len.
type StoreBuffer struct {
	cap        int
	index      wordmap.Map[sbWord] // word -> its slot and writethroughs
	pool       []sbSlot
	free       []int32 // recycled pool slots
	head, tail int32   // live entries, insertion order
	wtWords    int     // words with writethroughs in flight

	// evicted is the last overflow's line group (see Insert).
	evicted LineGroup

	// rec, when non-nil, receives SBInsert/SBCoalesce/SBDrain/SBEvict
	// events on the given track (the owning CU's node id).
	rec   *obs.Recorder
	track int32
}

// NewStoreBuffer returns a buffer with the given capacity in word slots.
func NewStoreBuffer(capacity int) *StoreBuffer {
	return &StoreBuffer{
		cap:  capacity,
		pool: make([]sbSlot, 0, capacity),
		head: nilSlot,
		tail: nilSlot,
	}
}

// SetRecorder installs an obs recorder (nil to disable) emitting this
// buffer's events on the given track.
func (b *StoreBuffer) SetRecorder(rec *obs.Recorder, track int32) {
	b.rec = rec
	b.track = track
}

// Cap returns the capacity.
func (b *StoreBuffer) Cap() int { return b.cap }

// Len returns the number of live slots.
func (b *StoreBuffer) Len() int { return len(b.pool) - len(b.free) }

// Full reports whether the buffer has no free slots.
func (b *StoreBuffer) Full() bool { return b.Len() >= b.cap }

// Lookup returns the buffered value for w, for store-to-load forwarding.
func (b *StoreBuffer) Lookup(w mem.Word) (uint32, bool) {
	e, _ := b.index.Get(uint64(w))
	if e.slot == 0 {
		return 0, false
	}
	return b.pool[e.slot-1].val, true
}

// Newest returns the newest value of w this L1 wrote that the L2 may
// not hold yet: the buffered write, else the value of the latest
// writethrough in flight.
func (b *StoreBuffer) Newest(w mem.Word) (uint32, bool) {
	e, ok := b.index.Get(uint64(w))
	switch {
	case e.slot != 0:
		return b.pool[e.slot-1].val, true
	case ok:
		return e.wtVal, true
	}
	return 0, false
}

// WTSent records a writethrough of the words of l in mask, carrying
// data, as in flight.
func (b *StoreBuffer) WTSent(l mem.Line, mask mem.WordMask, data *[mem.WordsPerLine]uint32) {
	for i := 0; i < mem.WordsPerLine; i++ {
		if !mask.Has(i) {
			continue
		}
		e := b.index.Upsert(uint64(l.Word(i)))
		if e.wt == 0 {
			b.wtWords++
		}
		e.wt++
		e.wtVal = data[i]
	}
}

// WTAcked retires one in-flight writethrough of each word of l in
// mask, returning the words that had none.
func (b *StoreBuffer) WTAcked(l mem.Line, mask mem.WordMask) (unmatched mem.WordMask) {
	for i := 0; i < mem.WordsPerLine; i++ {
		if !mask.Has(i) {
			continue
		}
		w := uint64(l.Word(i))
		e, ok := b.index.Ptr(w)
		if !ok || e.wt == 0 {
			unmatched |= mem.Bit(i)
			continue
		}
		if e.wt--; e.wt == 0 {
			b.wtWords--
			if e.slot == 0 {
				b.index.Delete(w)
			}
		}
	}
	return unmatched
}

// WTWords returns the number of words with writethroughs in flight.
func (b *StoreBuffer) WTWords() int { return b.wtWords }

// unindex drops w's buffered write from its index entry e, deleting
// the entry unless writethroughs of w are in flight.
func (b *StoreBuffer) unindex(w mem.Word, e *sbWord) {
	if e.wt == 0 {
		b.index.Delete(uint64(w))
	} else {
		e.slot = 0
	}
}

func (b *StoreBuffer) alloc() int32 {
	if n := len(b.free); n > 0 {
		i := b.free[n-1]
		b.free = b.free[:n-1]
		return i
	}
	b.pool = append(b.pool, sbSlot{})
	return int32(len(b.pool) - 1)
}

func (b *StoreBuffer) linkTail(i int32) {
	b.pool[i].prev, b.pool[i].next = b.tail, nilSlot
	if b.tail != nilSlot {
		b.pool[b.tail].next = i
	} else {
		b.head = i
	}
	b.tail = i
}

func (b *StoreBuffer) unlink(i int32) {
	s := &b.pool[i]
	if s.prev != nilSlot {
		b.pool[s.prev].next = s.next
	} else {
		b.head = s.next
	}
	if s.next != nilSlot {
		b.pool[s.next].prev = s.prev
	} else {
		b.tail = s.prev
	}
	b.free = append(b.free, i)
}

// Insert buffers a write of v to w. If w is already buffered the write
// coalesces (coalesced=true) into the existing slot, keeping its
// original position, and nothing is evicted. If the buffer is full, the
// oldest slot's entire line group is evicted and returned for the
// caller to drain as one coalesced writethrough — the hardware drains
// at line granularity, so streaming writes keep their coalescing; what
// overflow destroys is the ability of *future* writes to the evicted
// words to coalesce (the paper's LavaMD effect). The evicted group is
// owned by the buffer and valid until the next Insert, so an overflow
// allocates nothing.
func (b *StoreBuffer) Insert(w mem.Word, v uint32) (coalesced bool, evicted *LineGroup) {
	if e, _ := b.index.Get(uint64(w)); e.slot != 0 {
		b.pool[e.slot-1].val = v
		if b.rec != nil {
			b.rec.Emit(obs.SBCoalesce, b.track, uint64(w))
		}
		return true, nil
	}
	if b.Full() {
		evicted = b.popOldestLine()
	}
	i := b.alloc()
	b.pool[i] = sbSlot{word: w, val: v}
	b.linkTail(i)
	b.index.Upsert(uint64(w)).slot = i + 1
	if b.rec != nil {
		b.rec.Emit(obs.SBInsert, b.track, uint64(w))
	}
	return false, evicted
}

// popOldestLine removes the oldest slot and every other buffered slot
// of its line, returning them as one group in the buffer's evicted
// slot.
func (b *StoreBuffer) popOldestLine() *LineGroup {
	if b.head == nilSlot {
		panic("cache: popOldestLine on empty store buffer")
	}
	g := &b.evicted
	*g = LineGroup{Line: b.pool[b.head].word.LineOf()}
	words := uint64(0)
	for i := 0; i < mem.WordsPerLine; i++ {
		word := g.Line.Word(i)
		if e, ok := b.index.Ptr(uint64(word)); ok && e.slot != 0 {
			si := e.slot - 1
			g.Mask |= mem.Bit(i)
			g.Data[i] = b.pool[si].val
			b.unindex(word, e)
			b.unlink(si)
			words++
		}
	}
	if b.rec != nil {
		b.rec.Emit(obs.SBEvict, b.track, words)
	}
	return g
}

// Remove deletes the slot for w (e.g. when its registration completes)
// and returns its value.
func (b *StoreBuffer) Remove(w mem.Word) (uint32, bool) {
	e, ok := b.index.Ptr(uint64(w))
	if !ok || e.slot == 0 {
		return 0, false
	}
	i := e.slot - 1
	v := b.pool[i].val
	b.unindex(w, e)
	b.unlink(i)
	if b.rec != nil {
		b.rec.Emit(obs.SBDrain, b.track, 1)
	}
	return v, true
}

// PeekOldest returns the oldest live slot without removing it.
func (b *StoreBuffer) PeekOldest() (SBEntry, bool) {
	if b.head == nilSlot {
		return SBEntry{}, false
	}
	s := &b.pool[b.head]
	return SBEntry{Word: s.word, Val: s.val}, true
}

// AppendEntries appends all live slots in insertion order to dst and
// returns the extended slice; hot callers pass a recycled scratch
// buffer to keep the per-release path allocation-free.
func (b *StoreBuffer) AppendEntries(dst []SBEntry) []SBEntry {
	for i := b.head; i != nilSlot; i = b.pool[i].next {
		dst = append(dst, SBEntry{Word: b.pool[i].word, Val: b.pool[i].val})
	}
	return dst
}

// Entries returns all live slots in insertion order without removing
// them.
func (b *StoreBuffer) Entries() []SBEntry {
	return b.AppendEntries(make([]SBEntry, 0, b.Len()))
}

// AppendDrain empties the buffer, appending all slots in insertion
// order to dst (the allocation-free variant of DrainAll).
func (b *StoreBuffer) AppendDrain(dst []SBEntry) []SBEntry {
	dst = b.AppendEntries(dst)
	if b.rec != nil && b.Len() > 0 {
		b.rec.Emit(obs.SBDrain, b.track, uint64(b.Len()))
	}
	if b.wtWords == 0 {
		b.index.Reset() // every entry is a buffered word
	} else {
		for i := b.head; i != nilSlot; i = b.pool[i].next {
			w := b.pool[i].word
			e, _ := b.index.Ptr(uint64(w))
			b.unindex(w, e)
		}
	}
	b.pool = b.pool[:0]
	b.free = b.free[:0]
	b.head, b.tail = nilSlot, nilSlot
	return dst
}

// DrainAll empties the buffer, returning all slots in insertion order.
func (b *StoreBuffer) DrainAll() []SBEntry {
	return b.AppendDrain(make([]SBEntry, 0, b.Len()))
}

// CheckInvariants validates the buffer's internal structure (the
// model checker's sb-fifo invariant, structurally): the intrusive
// list and the word index must describe the same live slots — every
// linked slot indexed back to itself, back-pointers symmetric, no
// word appearing twice — and every pool slot must be either live or
// on the free list. The index must hold no entry that has neither a
// slot nor a writethrough in flight, and the in-flight word count must
// match it. Protocol sanitizers (machine.Config.Invariants) call it at
// quiesce points; it walks the whole buffer and is not for hot paths.
func (b *StoreBuffer) CheckInvariants() error {
	indexed, wtWords, empty := 0, 0, 0
	b.index.ForEach(func(_ uint64, e sbWord) {
		if e.slot != 0 {
			indexed++
		}
		if e.wt > 0 {
			wtWords++
		}
		if e.slot == 0 && e.wt <= 0 {
			empty++
		}
	})
	if empty > 0 {
		return fmt.Errorf("cache: store buffer index holds %d entries with no slot and no writethrough in flight", empty)
	}
	if wtWords != b.wtWords {
		return fmt.Errorf("cache: store buffer index has %d words in flight but counts %d", wtWords, b.wtWords)
	}
	live := 0
	prev := nilSlot
	for i := b.head; i != nilSlot; i = b.pool[i].next {
		s := &b.pool[i]
		if s.prev != prev {
			return fmt.Errorf("cache: store buffer slot %d has prev %d, want %d", i, s.prev, prev)
		}
		e, _ := b.index.Get(uint64(s.word))
		if e.slot == 0 {
			return fmt.Errorf("cache: store buffer slot %d holds %v, which the index does not know", i, s.word)
		}
		if j := e.slot - 1; j != i {
			return fmt.Errorf("cache: store buffer holds %v at slot %d but the index points to slot %d (duplicate word or stale index)", s.word, i, j)
		}
		live++
		if live > indexed {
			return fmt.Errorf("cache: store buffer list is longer than its %d-slot index (cycle or leaked slot)", indexed)
		}
		prev = i
	}
	if b.tail != prev {
		return fmt.Errorf("cache: store buffer tail is slot %d, but the list ends at slot %d", b.tail, prev)
	}
	if live != indexed {
		return fmt.Errorf("cache: store buffer list has %d slots but the index has %d", live, indexed)
	}
	if live+len(b.free) != len(b.pool) {
		return fmt.Errorf("cache: store buffer pool leak: %d live + %d free != %d pooled", live, len(b.free), len(b.pool))
	}
	return nil
}

// LineGroup is a set of buffered words of one line, for coalesced
// writethrough messages.
type LineGroup struct {
	Line mem.Line
	Mask mem.WordMask
	Data [mem.WordsPerLine]uint32
}

// AppendGroupByLine coalesces drained entries into per-line groups,
// preserving the order of first occurrence, appending to dst. The line
// lookup is a linear scan over the groups built so far: a drain covers
// at most a few tens of lines, where the scan beats a freshly
// allocated map.
func AppendGroupByLine(dst []LineGroup, entries []SBEntry) []LineGroup {
	base := len(dst)
	for _, e := range entries {
		l := e.Word.LineOf()
		gi := -1
		for i := base; i < len(dst); i++ {
			if dst[i].Line == l {
				gi = i
				break
			}
		}
		if gi < 0 {
			gi = len(dst)
			dst = append(dst, LineGroup{Line: l})
		}
		dst[gi].Mask |= mem.Bit(e.Word.Index())
		dst[gi].Data[e.Word.Index()] = e.Val
	}
	return dst
}

// GroupByLine coalesces drained entries into per-line groups, preserving
// the order of first occurrence. A release drains the whole buffer and
// sends one writethrough per line — the coalescing benefit the buffer
// exists for.
func GroupByLine(entries []SBEntry) []LineGroup {
	return AppendGroupByLine(nil, entries)
}

// VictimBuffer holds words whose ownership is in flight away from this
// cache: evicted Registered words awaiting WriteBackAck, and words
// transferred by RegXfer that may still receive stale forwards. It is a
// correctness structure for protocol races, not a performance one.
type VictimBuffer struct {
	vals wordmap.Map[uint32]
}

// NewVictimBuffer returns an empty victim buffer.
func NewVictimBuffer() *VictimBuffer {
	return &VictimBuffer{}
}

// Put stores a word value.
func (v *VictimBuffer) Put(w mem.Word, val uint32) { v.vals.Put(uint64(w), val) }

// Get returns a word value if present.
func (v *VictimBuffer) Get(w mem.Word) (uint32, bool) {
	return v.vals.Get(uint64(w))
}

// Drop removes a word.
func (v *VictimBuffer) Drop(w mem.Word) { v.vals.Delete(uint64(w)) }

// Len returns the number of held words.
func (v *VictimBuffer) Len() int { return v.vals.Len() }
