package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"denovogpu/internal/mem"
)

// refStoreBuffer is an obviously-correct reference model of the store
// buffer's contract: live entries in insertion order, where a word's
// position is that of its most recent insertion (a coalescing write
// keeps the original position; a remove-then-reinsert moves the word to
// the tail), and for each word the values of its writethroughs in
// flight, oldest first. The pooled, line-indexed implementation must
// match it operation for operation.
type refStoreBuffer struct {
	cap      int
	entries  []SBEntry
	inflight map[mem.Word][]uint32
}

func (r *refStoreBuffer) WTSent(l mem.Line, mask mem.WordMask, data *[mem.WordsPerLine]uint32) {
	if r.inflight == nil {
		r.inflight = map[mem.Word][]uint32{}
	}
	for i := 0; i < mem.WordsPerLine; i++ {
		if mask.Has(i) {
			r.inflight[l.Word(i)] = append(r.inflight[l.Word(i)], data[i])
		}
	}
}

func (r *refStoreBuffer) WTAcked(l mem.Line, mask mem.WordMask) (unmatched mem.WordMask) {
	for i := 0; i < mem.WordsPerLine; i++ {
		if !mask.Has(i) {
			continue
		}
		w := l.Word(i)
		switch f := r.inflight[w]; len(f) {
		case 0:
			unmatched |= mem.Bit(i)
		case 1:
			delete(r.inflight, w)
		default:
			r.inflight[w] = f[1:]
		}
	}
	return unmatched
}

func (r *refStoreBuffer) Newest(w mem.Word) (uint32, bool) {
	if v, ok := r.Lookup(w); ok {
		return v, true
	}
	if f := r.inflight[w]; len(f) > 0 {
		return f[len(f)-1], true
	}
	return 0, false
}

func (r *refStoreBuffer) find(w mem.Word) int {
	for i, e := range r.entries {
		if e.Word == w {
			return i
		}
	}
	return -1
}

func (r *refStoreBuffer) Lookup(w mem.Word) (uint32, bool) {
	if i := r.find(w); i >= 0 {
		return r.entries[i].Val, true
	}
	return 0, false
}

func (r *refStoreBuffer) Insert(w mem.Word, v uint32) (coalesced bool, evicted *LineGroup) {
	if i := r.find(w); i >= 0 {
		r.entries[i].Val = v
		return true, nil
	}
	if len(r.entries) >= r.cap {
		evicted = r.popOldestLine()
	}
	r.entries = append(r.entries, SBEntry{Word: w, Val: v})
	return false, evicted
}

func (r *refStoreBuffer) popOldestLine() *LineGroup {
	g := &LineGroup{Line: r.entries[0].Word.LineOf()}
	kept := r.entries[:0]
	for _, e := range r.entries {
		if e.Word.LineOf() == g.Line {
			g.Mask |= mem.Bit(e.Word.Index())
			g.Data[e.Word.Index()] = e.Val
			continue
		}
		kept = append(kept, e)
	}
	r.entries = kept
	return g
}

func (r *refStoreBuffer) Remove(w mem.Word) (uint32, bool) {
	i := r.find(w)
	if i < 0 {
		return 0, false
	}
	v := r.entries[i].Val
	r.entries = append(r.entries[:i], r.entries[i+1:]...)
	return v, true
}

// RemoveLine is Remove for each word of l in mask.
func (r *refStoreBuffer) RemoveLine(l mem.Line, mask mem.WordMask, vals *[mem.WordsPerLine]uint32) (got mem.WordMask) {
	for i := 0; i < mem.WordsPerLine; i++ {
		if !mask.Has(i) {
			continue
		}
		if v, ok := r.Remove(l.Word(i)); ok {
			vals[i] = v
			got |= mem.Bit(i)
		}
	}
	return got
}

func (r *refStoreBuffer) PeekOldest() (SBEntry, bool) {
	if len(r.entries) == 0 {
		return SBEntry{}, false
	}
	return r.entries[0], true
}

func (r *refStoreBuffer) Entries() []SBEntry {
	return append([]SBEntry(nil), r.entries...)
}

func (r *refStoreBuffer) DrainAll() []SBEntry {
	out := append([]SBEntry(nil), r.entries...)
	r.entries = r.entries[:0]
	return out
}

// TestStoreBufferMatchesReference drives the pooled implementation and
// the reference model through long random operation sequences and
// requires every observable output to agree. Small capacities and a
// narrow word range force constant coalescing, overflow eviction, and
// remove-then-reinsert traffic.
func TestStoreBufferMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	for trial := 0; trial < 50; trial++ {
		capacity := 1 + rng.Intn(24)
		b := NewStoreBuffer(capacity)
		ref := &refStoreBuffer{cap: capacity}
		words := 4 + rng.Intn(60) // word space; small => heavy coalescing
		for op := 0; op < 400; op++ {
			w := mem.Word(rng.Intn(words))
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // insert
				v := rng.Uint32()
				gc, ge := b.Insert(w, v)
				wc, we := ref.Insert(w, v)
				if gc != wc || !reflect.DeepEqual(ge, we) {
					t.Fatalf("trial %d op %d: Insert(%v)=(%v,%+v) want (%v,%+v)", trial, op, w, gc, ge, wc, we)
				}
			case 5, 6: // remove
				gv, gok := b.Remove(w)
				wv, wok := ref.Remove(w)
				if gv != wv || gok != wok {
					t.Fatalf("trial %d op %d: Remove(%v)=(%v,%v) want (%v,%v)", trial, op, w, gv, gok, wv, wok)
				}
			case 7: // lookup
				gv, gok := b.Lookup(w)
				wv, wok := ref.Lookup(w)
				if gv != wv || gok != wok {
					t.Fatalf("trial %d op %d: Lookup(%v)=(%v,%v) want (%v,%v)", trial, op, w, gv, gok, wv, wok)
				}
			case 8: // peek
				ge, gok := b.PeekOldest()
				we, wok := ref.PeekOldest()
				if ge != we || gok != wok {
					t.Fatalf("trial %d op %d: PeekOldest()=(%+v,%v) want (%+v,%v)", trial, op, ge, gok, we, wok)
				}
			case 9: // occasionally drain everything (a release), by entry or by line
				switch rng.Intn(8) {
				case 0:
					got, want := b.DrainAll(), ref.DrainAll()
					if !sbEntriesEqual(got, want) {
						t.Fatalf("trial %d op %d: DrainAll()=%v want %v", trial, op, got, want)
					}
				case 1:
					got, want := b.AppendDrainLines(nil), GroupByLine(ref.DrainAll())
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d op %d: AppendDrainLines()=%+v want %+v", trial, op, got, want)
					}
				}
			}
			if b.Len() != len(ref.entries) {
				t.Fatalf("trial %d op %d: Len()=%d want %d", trial, op, b.Len(), len(ref.entries))
			}
			if got, want := b.Entries(), ref.Entries(); !sbEntriesEqual(got, want) {
				t.Fatalf("trial %d op %d: Entries()=%v want %v", trial, op, got, want)
			}
		}
	}
}

func sbEntriesEqual(a, b []SBEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStoreBufferRemoveReinsert pins the corrected remove-then-reinsert
// semantics. The original slice-backed FIFO never scrubbed a removed
// word's position marker, so reinserting the word made Entries and
// DrainAll emit it twice — once at the stale position, once at the tail
// — double-counting store-buffer drain energy and perturbing drain
// order. A reinserted word must appear exactly once, at the tail.
func TestStoreBufferRemoveReinsert(t *testing.T) {
	b := NewStoreBuffer(8)
	w0, w1 := mem.Word(0), mem.Word(100)
	b.Insert(w0, 1)
	b.Insert(w1, 2)
	if _, ok := b.Remove(w0); !ok {
		t.Fatal("Remove(w0) missed")
	}
	b.Insert(w0, 3)
	want := []SBEntry{{Word: w1, Val: 2}, {Word: w0, Val: 3}}
	if got := b.Entries(); !sbEntriesEqual(got, want) {
		t.Fatalf("Entries()=%v want %v (reinserted word once, at tail)", got, want)
	}
	if e, _ := b.PeekOldest(); e.Word != w1 {
		t.Fatalf("PeekOldest()=%v want %v", e.Word, w1)
	}
	if got := b.DrainAll(); !sbEntriesEqual(got, want) {
		t.Fatalf("DrainAll()=%v want %v", got, want)
	}
	if b.Len() != 0 {
		t.Fatalf("Len()=%d after drain", b.Len())
	}
}

// AppendGroupByLine is the reference for AppendDrainLines: it coalesces
// drained entries into per-line groups, in the order of each line's
// first occurrence, appending to dst.
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

// GroupByLine is AppendGroupByLine into a new slice.
func GroupByLine(entries []SBEntry) []LineGroup {
	return AppendGroupByLine(nil, entries)
}

// checkAgainstRef requires b to be structurally valid and to agree
// with ref on Len, WTWords and, for every word of lines, on Lookup,
// Newest, and on LookupLine and NewestLine asked for the words of need.
// The line reads must write exactly the words they report found and
// leave the rest of vals alone.
func checkAgainstRef(t *testing.T, b *StoreBuffer, ref *refStoreBuffer, lines []mem.Line, need mem.WordMask) {
	t.Helper()
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != len(ref.entries) || b.WTWords() != len(ref.inflight) {
		t.Fatalf("Len %d WTWords %d, want %d and %d", b.Len(), b.WTWords(), len(ref.entries), len(ref.inflight))
	}
	wantLines := map[mem.Line]mem.WordMask{}
	for _, e := range ref.entries {
		wantLines[e.Word.LineOf()] |= mem.Bit(e.Word.Index())
	}
	gotLines := map[mem.Line]mem.WordMask{}
	b.ForEachLine(func(l mem.Line, buf mem.WordMask) { gotLines[l] |= buf })
	if !reflect.DeepEqual(gotLines, wantLines) {
		t.Fatalf("ForEachLine visits %v, want %v", gotLines, wantLines)
	}
	const sentinel = 0xdeadbeef
	for _, l := range lines {
		var wantLookup, wantNewest mem.WordMask
		for i := 0; i < mem.WordsPerLine; i++ {
			w := l.Word(i)
			v, ok := ref.Lookup(w)
			if gv, gok := b.Lookup(w); gv != v || gok != ok {
				t.Fatalf("Lookup(%v) = %d, %v; want %d, %v", w, gv, gok, v, ok)
			}
			if ok {
				wantLookup |= mem.Bit(i)
			}
			v, ok = ref.Newest(w)
			if gv, gok := b.Newest(w); gv != v || gok != ok {
				t.Fatalf("Newest(%v) = %d, %v; want %d, %v", w, gv, gok, v, ok)
			}
			if ok {
				wantNewest |= mem.Bit(i)
			}
		}
		for _, read := range []struct {
			name string
			fn   func(mem.Line, mem.WordMask, *[mem.WordsPerLine]uint32) mem.WordMask
			word func(mem.Word) (uint32, bool)
			want mem.WordMask
		}{
			{"LookupLine", b.LookupLine, ref.Lookup, wantLookup & need},
			{"NewestLine", b.NewestLine, ref.Newest, wantNewest & need},
		} {
			var vals [mem.WordsPerLine]uint32
			for i := range vals {
				vals[i] = sentinel
			}
			if got := read.fn(l, need, &vals); got != read.want {
				t.Fatalf("%s(%v, %016b) found %016b, want %016b", read.name, l, need, got, read.want)
			}
			for i := 0; i < mem.WordsPerLine; i++ {
				want := uint32(sentinel)
				if read.want.Has(i) {
					want, _ = read.word(l.Word(i))
				}
				if vals[i] != want {
					t.Fatalf("%s(%v, %016b) wrote %d to word %d, want %d", read.name, l, need, vals[i], i, want)
				}
			}
		}
	}
}

// removeLine removes the words of l in mask from b and ref, requiring
// the same words and values, with the rest of vals left alone.
func removeLine(t *testing.T, b *StoreBuffer, ref *refStoreBuffer, l mem.Line, mask mem.WordMask) {
	t.Helper()
	var got, want [mem.WordsPerLine]uint32
	for i := range got {
		got[i], want[i] = 0xdeadbeef, 0xdeadbeef
	}
	if g, w := b.RemoveLine(l, mask, &got), ref.RemoveLine(l, mask, &want); g != w || got != want {
		t.Fatalf("RemoveLine(%v, %016b) = %016b %v, want %016b %v", l, mask, g, got, w, want)
	}
}

// TestStoreBufferLineReadsMatchWordReads: for random need masks,
// NewestLine and LookupLine return exactly the words, and the values,
// that per-word Newest and Lookup find, on a buffer churned by inserts,
// removes, overflows, drains and multi-word writethroughs.
func TestStoreBufferLineReadsMatchWordReads(t *testing.T) {
	rng := rand.New(rand.NewSource(20261020))
	lines := []mem.Line{3, 4, 5}
	for trial := 0; trial < 20; trial++ {
		capacity := 1 + rng.Intn(20)
		b := NewStoreBuffer(capacity)
		ref := &refStoreBuffer{cap: capacity}
		for step := 0; step < 300; step++ {
			l := lines[rng.Intn(len(lines))]
			w := l.Word(rng.Intn(mem.WordsPerLine))
			mask := mem.WordMask(rng.Uint32())
			switch rng.Intn(9) {
			case 0:
				b.Remove(w)
				ref.Remove(w)
			case 8:
				removeLine(t, b, ref, l, mask)
			case 1:
				b.AppendDrain(nil)
				ref.DrainAll()
			case 2:
				var data [mem.WordsPerLine]uint32
				for i := range data {
					data[i] = rng.Uint32()
				}
				b.WTSent(l, mask, &data)
				ref.WTSent(l, mask, &data)
			case 3:
				b.WTAcked(l, mask)
				ref.WTAcked(l, mask)
			default:
				v := rng.Uint32()
				b.Insert(w, v)
				ref.Insert(w, v)
			}
			checkAgainstRef(t, b, ref, lines, mem.WordMask(rng.Uint32()))
		}
	}
}

// TestStoreBufferDrainLinesMatchesGroupedDrain: draining by line equals
// grouping the entry drain by line, group for group, and leaves the
// same buffer behind, in-flight writethroughs included. Two buffers take
// the same random operations; at each drain one drains by line and the
// other by entry.
func TestStoreBufferDrainLinesMatchesGroupedDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(20261021))
	lines := []mem.Line{0, 1, 2, 3, 9}
	for trial := 0; trial < 30; trial++ {
		capacity := 1 + rng.Intn(40)
		byLine, byEntry := NewStoreBuffer(capacity), NewStoreBuffer(capacity)
		ref := &refStoreBuffer{cap: capacity}
		for step := 0; step < 300; step++ {
			l := lines[rng.Intn(len(lines))]
			w := l.Word(rng.Intn(mem.WordsPerLine))
			mask := mem.WordMask(rng.Uint32())
			switch rng.Intn(10) {
			case 0: // both append after a group already in dst
				got := byLine.AppendDrainLines([]LineGroup{{Line: 99}})
				want := AppendGroupByLine([]LineGroup{{Line: 99}}, byEntry.AppendDrain(nil))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d step %d: AppendDrainLines = %+v, want %+v", trial, step, got, want)
				}
				ref.DrainAll()
			case 1:
				byLine.Remove(w)
				byEntry.Remove(w)
				ref.Remove(w)
			case 2:
				var data [mem.WordsPerLine]uint32
				data[w.Index()] = rng.Uint32()
				for _, b := range []*StoreBuffer{byLine, byEntry} {
					b.WTSent(l, mask, &data)
				}
				ref.WTSent(l, mask, &data)
			case 3:
				byLine.WTAcked(l, mask)
				byEntry.WTAcked(l, mask)
				ref.WTAcked(l, mask)
			default:
				v := rng.Uint32()
				_, ge := byLine.Insert(w, v)
				_, we := byEntry.Insert(w, v)
				if !reflect.DeepEqual(ge, we) {
					t.Fatalf("trial %d step %d: evictions differ: %+v vs %+v", trial, step, ge, we)
				}
				ref.Insert(w, v)
			}
			checkAgainstRef(t, byLine, ref, lines, mem.AllWords)
			checkAgainstRef(t, byEntry, ref, lines, mem.AllWords)
		}
	}
}

// FuzzStoreBuffer decodes its input into a capacity and a stream of
// inserts, removes (by word or by line), drains (by entry or by line) and writethroughs sent
// and acked over four lines, runs it against the reference model, and
// checks the buffer's structure and every read after each operation.
// `go test` runs the seed corpus; `go test -fuzz=FuzzStoreBuffer
// ./internal/cache` explores further.
func FuzzStoreBuffer(f *testing.F) {
	f.Add([]byte{4, 0, 0x01, 7, 0, 0x11, 8, 3, 0x01, 0xff, 5, 0x01, 0xff})
	f.Add([]byte{2, 0, 0x00, 1, 0, 0x10, 2, 0, 0x20, 3, 2, 0x00, 0, 3, 0x01, 0x03, 4, 0x01, 0x01})
	f.Add([]byte{1, 3, 0x05, 0xff, 0xff, 0, 0x05, 9, 0, 0x15, 9, 4, 0x05, 0xff, 0xff, 2, 1, 0x05})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0]%16)
		b := NewStoreBuffer(capacity)
		ref := &refStoreBuffer{cap: capacity}
		lines := []mem.Line{0, 1, 2, 3}
		next := func(i *int) byte {
			if *i >= len(data) {
				return 0
			}
			*i++
			return data[*i-1]
		}
		for i := 1; i < len(data); {
			op, at := next(&i), next(&i)
			l, w := lines[at>>4%4], lines[at>>4%4].Word(int(at%16))
			switch op % 6 {
			case 0, 1: // insert
				v := uint32(next(&i)) + 1
				gc, ge := b.Insert(w, v)
				wc, we := ref.Insert(w, v)
				if gc != wc || !reflect.DeepEqual(ge, we) {
					t.Fatalf("Insert(%v) = %v, %+v; want %v, %+v", w, gc, ge, wc, we)
				}
			case 2: // remove a word, or by line when op/6 is odd
				if op/6%2 == 1 {
					removeLine(t, b, ref, l, mem.WordMask(next(&i))|mem.WordMask(next(&i))<<8)
					break
				}
				gv, gok := b.Remove(w)
				wv, wok := ref.Remove(w)
				if gv != wv || gok != wok {
					t.Fatalf("Remove(%v) = %d, %v; want %d, %v", w, gv, gok, wv, wok)
				}
			case 3: // drain, by line when at is odd
				if at%2 == 1 {
					got, want := b.AppendDrainLines(nil), GroupByLine(ref.DrainAll())
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("AppendDrainLines() = %+v, want %+v", got, want)
					}
				} else if got, want := b.AppendDrain(nil), ref.DrainAll(); !sbEntriesEqual(got, want) {
					t.Fatalf("AppendDrain() = %v, want %v", got, want)
				}
			case 4: // writethrough sent
				mask := mem.WordMask(next(&i)) | mem.WordMask(next(&i))<<8
				var vals [mem.WordsPerLine]uint32
				for j := range vals {
					vals[j] = uint32(i)<<4 | uint32(j) // unique to this send
				}
				b.WTSent(l, mask, &vals)
				ref.WTSent(l, mask, &vals)
			case 5: // writethrough acked
				mask := mem.WordMask(next(&i)) | mem.WordMask(next(&i))<<8
				if got, want := b.WTAcked(l, mask), ref.WTAcked(l, mask); got != want {
					t.Fatalf("WTAcked(%v, %016b) unmatched %016b, want %016b", l, mask, got, want)
				}
			}
			checkAgainstRef(t, b, ref, lines, mem.WordMask(at)*0x0101)
		}
	})
}
