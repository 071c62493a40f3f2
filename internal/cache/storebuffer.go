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

// nilSlot terminates the intrusive slot lists.
const nilSlot = int32(-1)

// sbLine is the index entry of one line: which of its words are
// buffered and which have writethroughs in flight. An entry exists only
// while one of the two masks is non-zero.
type sbLine struct {
	buf, wt mem.WordMask
	first   int32 // head of the buffered words' slot chain (sbSlot.sib); meaningful while buf != 0
	wts     int32 // the line's in-flight record in StoreBuffer.wts; meaningful while wt != 0
}

// sbInFlight is a line's in-flight record: per word, the writethroughs
// sent and not yet acked, and the value the latest of them carries. The
// counts stay per word, so a word's Newest reflects its own latest
// writethrough while another writethrough of the same line is in flight.
type sbInFlight struct {
	n   [mem.WordsPerLine]int32
	val [mem.WordsPerLine]uint32
}

// sbSlot is one pooled buffer slot, linked in insertion order (prev,
// next) and into its line's chain (sib).
type sbSlot struct {
	word            mem.Word
	val             uint32
	prev, next, sib int32
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
// operation — including RemoveLine, which DeNovo calls once per
// completed registration — is O(1) plus a walk of at most one line's
// slots, and iteration is O(live entries).
//
// The index is keyed by line: each entry holds the masks of the line's
// buffered words and of its words with writethroughs in flight to the
// L2 (WTSent, WTAcked), the head of the chain of its buffered slots,
// and, while writethroughs are in flight, a pooled per-word record of
// their counts and latest values. GPU coherence's reads must see an
// in-flight value rather than a stale fill, and one probe per line
// (NewestLine) answers both; a line whose masks miss the words asked
// for skips the buffer. DeNovo never writes through, so its lines take
// no in-flight record. In-flight words take no slot and are not
// counted by Len. The index replaced a word-keyed
// wordmap.Map[sbWord], which an L1 read probed once per word.
type StoreBuffer struct {
	cap        int
	index      wordmap.Map[sbLine] // line -> its buffered and in-flight words
	pool       []sbSlot
	free       []int32 // recycled pool slots
	head, tail int32   // live entries, insertion order
	wts        []sbInFlight
	wtFree     []int32 // recycled in-flight records
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
	var vals [mem.WordsPerLine]uint32
	got := b.LookupLine(w.LineOf(), mem.Bit(w.Index()), &vals)
	return vals[w.Index()], got != 0
}

// Newest returns the newest value of w this L1 wrote that the L2 may
// not hold yet: the buffered write, else the value of the latest
// writethrough in flight.
func (b *StoreBuffer) Newest(w mem.Word) (uint32, bool) {
	var vals [mem.WordsPerLine]uint32
	got := b.NewestLine(w.LineOf(), mem.Bit(w.Index()), &vals)
	return vals[w.Index()], got != 0
}

// LookupLine is Lookup for the words of l in need, with one index
// probe: it writes the buffered value of each word it finds into vals
// and returns their mask. The other entries of vals are left alone.
func (b *StoreBuffer) LookupLine(l mem.Line, need mem.WordMask, vals *[mem.WordsPerLine]uint32) mem.WordMask {
	e, _ := b.index.Get(uint64(l))
	return b.lookupLine(e, need, vals)
}

// NewestLine is Newest for the words of l in need, with one index
// probe: it writes the newest value of each word it finds into vals
// and returns their mask. The other entries of vals are left alone.
func (b *StoreBuffer) NewestLine(l mem.Line, need mem.WordMask, vals *[mem.WordsPerLine]uint32) mem.WordMask {
	e, _ := b.index.Get(uint64(l))
	got := b.lookupLine(e, need, vals)
	if wt := need & e.wt &^ got; wt != 0 {
		r := &b.wts[e.wts]
		for i := 0; i < mem.WordsPerLine; i++ {
			if wt.Has(i) {
				vals[i] = r.val[i]
			}
		}
		got |= wt
	}
	return got
}

// lookupLine writes the buffered values of the words in need & e.buf
// into vals, walking e's slot chain, and returns that mask.
func (b *StoreBuffer) lookupLine(e sbLine, need mem.WordMask, vals *[mem.WordsPerLine]uint32) mem.WordMask {
	got := need & e.buf
	if got == 0 {
		return 0
	}
	for s := e.first; s != nilSlot; s = b.pool[s].sib {
		if i := b.pool[s].word.Index(); got.Has(i) {
			vals[i] = b.pool[s].val
		}
	}
	return got
}

// WTSent records a writethrough of the words of l in mask, carrying
// data, as in flight.
func (b *StoreBuffer) WTSent(l mem.Line, mask mem.WordMask, data *[mem.WordsPerLine]uint32) {
	if mask == 0 {
		return
	}
	e := b.index.Upsert(uint64(l))
	if e.wt == 0 {
		e.wts = alloc(&b.wts, &b.wtFree)
	}
	e.wt |= mask
	r := &b.wts[e.wts]
	for i := 0; i < mem.WordsPerLine; i++ {
		if !mask.Has(i) {
			continue
		}
		if r.n[i] == 0 {
			b.wtWords++
		}
		r.n[i]++
		r.val[i] = data[i]
	}
}

// WTAcked retires one in-flight writethrough of each word of l in
// mask, returning the words that had none.
func (b *StoreBuffer) WTAcked(l mem.Line, mask mem.WordMask) (unmatched mem.WordMask) {
	e, ok := b.index.Ptr(uint64(l))
	if !ok {
		return mask
	}
	acked := mask & e.wt
	if acked == 0 {
		return mask
	}
	r := &b.wts[e.wts]
	for i := 0; i < mem.WordsPerLine; i++ {
		if !acked.Has(i) {
			continue
		}
		if r.n[i]--; r.n[i] == 0 {
			b.wtWords--
			e.wt &^= mem.Bit(i)
		}
	}
	if e.wt == 0 {
		b.wtFree = append(b.wtFree, e.wts)
		if e.buf == 0 {
			b.index.Delete(uint64(l))
		}
	}
	return mask &^ acked
}

// WTWords returns the number of words with writethroughs in flight.
func (b *StoreBuffer) WTWords() int { return b.wtWords }

// unbuffer drops every buffered word of line l from its index entry e,
// deleting the entry unless writethroughs of l are in flight.
func (b *StoreBuffer) unbuffer(l mem.Line, e *sbLine) {
	if e.wt == 0 {
		b.index.Delete(uint64(l))
	} else {
		e.buf = 0
	}
}

// alloc returns an index into *pool: the last recycled one on *free,
// else that of a new zero element appended to *pool.
func alloc[T any](pool *[]T, free *[]int32) int32 {
	if n := len(*free); n > 0 {
		i := (*free)[n-1]
		*free = (*free)[:n-1]
		return i
	}
	*pool = append(*pool, *new(T))
	return int32(len(*pool) - 1)
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
	l, bit := w.LineOf(), mem.Bit(w.Index())
	e := b.index.Upsert(uint64(l))
	if e.buf&bit != 0 {
		s := e.first
		for b.pool[s].word != w {
			s = b.pool[s].sib
		}
		b.pool[s].val = v
		if b.rec != nil {
			b.rec.Emit(obs.SBCoalesce, b.track, uint64(w))
		}
		return true, nil
	}
	if b.Full() {
		evicted = b.popOldestLine()
		e = b.index.Upsert(uint64(l)) // the eviction may have moved or deleted l's entry
	}
	i := alloc(&b.pool, &b.free)
	b.pool[i] = sbSlot{word: w, val: v, sib: nilSlot}
	if e.buf != 0 {
		b.pool[i].sib = e.first
	}
	e.first = i
	e.buf |= bit
	b.linkTail(i)
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
	l := b.pool[b.head].word.LineOf()
	e, _ := b.index.Ptr(uint64(l))
	g := &b.evicted
	*g = LineGroup{Line: l, Mask: e.buf}
	for s := e.first; s != nilSlot; s = b.pool[s].sib {
		g.Data[b.pool[s].word.Index()] = b.pool[s].val
		b.unlink(s)
	}
	b.unbuffer(l, e)
	if b.rec != nil {
		b.rec.Emit(obs.SBEvict, b.track, uint64(g.Mask.Count()))
	}
	return g
}

// Remove deletes the slot for w (e.g. when its registration completes)
// and returns its value.
func (b *StoreBuffer) Remove(w mem.Word) (uint32, bool) {
	var vals [mem.WordsPerLine]uint32
	got := b.RemoveLine(w.LineOf(), mem.Bit(w.Index()), &vals)
	return vals[w.Index()], got != 0
}

// RemoveLine deletes the slots of the words of l in mask (a
// registration completing for a line's words), writing each removed
// value into vals, and returns the mask of words it removed. The other
// entries of vals are left alone. It costs one index probe and one walk
// of the line's slot chain.
func (b *StoreBuffer) RemoveLine(l mem.Line, mask mem.WordMask, vals *[mem.WordsPerLine]uint32) mem.WordMask {
	e, ok := b.index.Ptr(uint64(l))
	if !ok {
		return 0
	}
	got := mask & e.buf
	if got == 0 {
		return 0
	}
	prev := nilSlot
	for s := e.first; s != nilSlot; {
		next := b.pool[s].sib
		if i := b.pool[s].word.Index(); got.Has(i) {
			vals[i] = b.pool[s].val
			if prev == nilSlot {
				e.first = next
			} else {
				b.pool[prev].sib = next
			}
			b.unlink(s)
		} else {
			prev = s
		}
		s = next
	}
	if e.buf &^= got; e.buf == 0 && e.wt == 0 {
		b.index.Delete(uint64(l))
	}
	if b.rec != nil {
		b.rec.Emit(obs.SBDrain, b.track, uint64(got.Count()))
	}
	return got
}

// ForEachLine calls fn for every line with buffered words, with their
// mask, in unspecified order. fn must not change the buffer.
func (b *StoreBuffer) ForEachLine(fn func(l mem.Line, buf mem.WordMask)) {
	b.index.ForEach(func(k uint64, e sbLine) {
		if e.buf != 0 {
			fn(mem.Line(k), e.buf)
		}
	})
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
	b.emitDrain()
	for i := b.head; i != nilSlot; i = b.pool[i].next {
		l := b.pool[i].word.LineOf()
		if e, ok := b.index.Ptr(uint64(l)); ok && e.buf != 0 {
			b.unbuffer(l, e)
		}
	}
	b.emptyPool()
	return dst
}

// AppendDrainLines empties the buffer, appending one group per line to
// dst in the order of each line's oldest slot: the drain a release
// writes through, equal to grouping AppendDrain's entries by line. A
// release passes a recycled scratch slice, so it allocates nothing.
func (b *StoreBuffer) AppendDrainLines(dst []LineGroup) []LineGroup {
	b.emitDrain()
	for i := b.head; i != nilSlot; i = b.pool[i].next {
		l := b.pool[i].word.LineOf()
		e, ok := b.index.Ptr(uint64(l))
		if !ok || e.buf == 0 {
			continue // the line's group is already out
		}
		dst = append(dst, LineGroup{Line: l, Mask: e.buf})
		b.lookupLine(*e, e.buf, &dst[len(dst)-1].Data)
		b.unbuffer(l, e)
	}
	b.emptyPool()
	return dst
}

// DrainAll empties the buffer, returning all slots in insertion order.
func (b *StoreBuffer) DrainAll() []SBEntry {
	return b.AppendDrain(make([]SBEntry, 0, b.Len()))
}

func (b *StoreBuffer) emitDrain() {
	if b.rec != nil && b.Len() > 0 {
		b.rec.Emit(obs.SBDrain, b.track, uint64(b.Len()))
	}
}

// emptyPool frees every slot; the index must already hold none.
func (b *StoreBuffer) emptyPool() {
	b.pool = b.pool[:0]
	b.free = b.free[:0]
	b.head, b.tail = nilSlot, nilSlot
}

// CheckInvariants validates the buffer's internal structure (the
// model checker's sb-fifo invariant, structurally). Each line entry
// must buffer or have in flight at least one word; its slot chain must
// hold exactly the words of its buffered mask, each once, all of that
// line; and its in-flight record, held only while its in-flight mask is
// non-zero and by no other line, must count writethroughs for exactly
// the words of that mask. The in-flight word count must match the
// masks, and every record must be held or free, not both. The
// intrusive list must hold exactly the chained slots, back-pointers
// symmetric, and every pool slot must be either live or free.
// Protocol sanitizers (machine.Config.Invariants) call it at quiesce
// points; it walks the whole buffer and is not for hot paths.
func (b *StoreBuffer) CheckInvariants() error {
	chained := make([]bool, len(b.pool))
	held := make([]bool, len(b.wts))
	indexed, wtWords := 0, 0
	var err error
	b.index.ForEach(func(k uint64, e sbLine) {
		if err == nil {
			err = b.checkLine(mem.Line(k), e, chained, held)
			indexed += e.buf.Count()
			wtWords += e.wt.Count()
		}
	})
	if err != nil {
		return err
	}
	if wtWords != b.wtWords {
		return fmt.Errorf("cache: store buffer index has %d words in flight but counts %d", wtWords, b.wtWords)
	}
	nheld := 0
	for _, h := range held {
		if h {
			nheld++
		}
	}
	for _, r := range b.wtFree {
		if r < 0 || int(r) >= len(held) || held[r] {
			return fmt.Errorf("cache: store buffer frees in-flight record %d, which is out of range or held", r)
		}
	}
	if nheld+len(b.wtFree) != len(b.wts) {
		return fmt.Errorf("cache: store buffer in-flight record leak: %d held + %d free != %d pooled", nheld, len(b.wtFree), len(b.wts))
	}
	live := 0
	prev := nilSlot
	for i := b.head; i != nilSlot; i = b.pool[i].next {
		s := &b.pool[i]
		if s.prev != prev {
			return fmt.Errorf("cache: store buffer slot %d has prev %d, want %d", i, s.prev, prev)
		}
		if !chained[i] {
			return fmt.Errorf("cache: store buffer slot %d holds %v, which the index does not know", i, s.word)
		}
		live++
		if live > indexed {
			return fmt.Errorf("cache: store buffer list is longer than its %d indexed slots (cycle or leaked slot)", indexed)
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

// checkLine validates line l's index entry e, marking the slots its
// chain visits in chained and its in-flight record in held.
func (b *StoreBuffer) checkLine(l mem.Line, e sbLine, chained, held []bool) error {
	if e.buf == 0 && e.wt == 0 {
		return fmt.Errorf("cache: store buffer index holds %v with no word buffered and none in flight", l)
	}
	var words mem.WordMask
	for s := e.first; e.buf != 0 && s != nilSlot; s = b.pool[s].sib {
		if s < 0 || int(s) >= len(b.pool) {
			return fmt.Errorf("cache: store buffer %v has a broken chain: slot %d is out of range", l, s)
		}
		chained[s] = true
		w := b.pool[s].word
		if w.LineOf() != l || words.Has(w.Index()) { // a cycle repeats a word
			return fmt.Errorf("cache: store buffer %v has a broken chain: slot %d holds %v", l, s, w)
		}
		words |= mem.Bit(w.Index())
	}
	if words != e.buf {
		return fmt.Errorf("cache: store buffer %v chains words %016b but its buffered mask is %016b", l, words, e.buf)
	}
	if e.wt == 0 {
		return nil
	}
	if e.wts < 0 || int(e.wts) >= len(b.wts) || held[e.wts] {
		return fmt.Errorf("cache: store buffer %v holds in-flight record %d, which is out of range or held twice", l, e.wts)
	}
	held[e.wts] = true
	for i, n := range b.wts[e.wts].n {
		if n < 0 || (n > 0) != e.wt.Has(i) {
			return fmt.Errorf("cache: store buffer %v counts %d writethroughs of word %d in flight, but its in-flight mask is %016b", l, n, i, e.wt)
		}
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
