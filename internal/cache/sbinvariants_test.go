package cache

import (
	"math/rand"
	"strings"
	"testing"

	"denovogpu/internal/mem"
)

// TestStoreBufferCheckInvariantsProperty drives a small buffer through
// a random insert/coalesce/remove/overflow/drain workload, validating
// the structural invariants after every operation.
func TestStoreBufferCheckInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	b := NewStoreBuffer(6)
	words := make([]mem.Word, 24)
	for i := range words {
		words[i] = mem.Addr(i * 4).WordOf()
	}
	for step := 0; step < 2000; step++ {
		w := words[rng.Intn(len(words))]
		switch rng.Intn(10) {
		case 0:
			b.Remove(w)
		case 1:
			b.AppendDrain(nil)
		case 2:
			b.PeekOldest()
		default:
			b.Insert(w, uint32(step))
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestStoreBufferCheckInvariantsDetectsCorruption hand-breaks each
// structural invariant and checks the detector names it.
func TestStoreBufferCheckInvariantsDetectsCorruption(t *testing.T) {
	w0 := mem.Addr(0x00).WordOf()
	w1 := mem.Addr(0x40).WordOf()

	fresh := func() *StoreBuffer {
		b := NewStoreBuffer(4)
		b.Insert(w0, 1)
		b.Insert(w1, 2)
		return b
	}

	slot := func(b *StoreBuffer, w mem.Word) int32 {
		e, ok := b.index.Get(uint64(w))
		if !ok || e.slot == 0 {
			t.Fatalf("word %v not indexed", w)
		}
		return e.slot - 1
	}

	b := fresh()
	b.index.Put(uint64(w0), sbWord{slot: slot(b, w1) + 1})
	if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "index points to") {
		t.Fatalf("cross-linked index: got %v", err)
	}

	b = fresh()
	b.index.Delete(uint64(w1))
	if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "does not know") {
		t.Fatalf("missing index entry: got %v", err)
	}

	b = fresh()
	b.pool[slot(b, w1)].prev = nilSlot
	if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "has prev") {
		t.Fatalf("broken back-pointer: got %v", err)
	}

	b = fresh()
	b.tail = b.head
	if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "tail") {
		t.Fatalf("stale tail: got %v", err)
	}

	b = fresh()
	b.free = append(b.free, slot(b, w0))
	if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "pool leak") {
		t.Fatalf("slot both live and free: got %v", err)
	}
}

// TestStoreBufferWritethroughTracking drives a small buffer through
// random inserts, removes, drains, overflows and writethroughs sent and
// acked, against a reference of buffered values and in-flight counts:
// Newest is the buffered value, else the latest in-flight one; in-flight
// words take no slot; and the structure stays valid after every step.
func TestStoreBufferWritethroughTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	b := NewStoreBuffer(4)
	buffered := map[mem.Word]uint32{}
	type flight struct{ vals []uint32 } // values of the writethroughs in flight, oldest first
	inflight := map[mem.Word]*flight{}
	send := func(l mem.Line, mask mem.WordMask, data *[mem.WordsPerLine]uint32) {
		b.WTSent(l, mask, data)
		for i := 0; i < mem.WordsPerLine; i++ {
			if mask.Has(i) {
				f := inflight[l.Word(i)]
				if f == nil {
					f = &flight{}
					inflight[l.Word(i)] = f
				}
				f.vals = append(f.vals, data[i])
			}
		}
	}
	lines := []mem.Line{0, 1, 2}
	for step := 0; step < 5000; step++ {
		l := lines[rng.Intn(len(lines))]
		i := rng.Intn(4)
		w := l.Word(i)
		switch rng.Intn(8) {
		case 0:
			if v, ok := b.Remove(w); ok != (buffered[w] != 0) || v != buffered[w] {
				t.Fatalf("step %d: Remove(%v) = %d, %v; want %d", step, w, v, ok, buffered[w])
			}
			delete(buffered, w)
		case 1:
			for _, g := range AppendGroupByLine(nil, b.AppendDrain(nil)) {
				send(g.Line, g.Mask, &g.Data)
			}
			clear(buffered)
		case 2, 3:
			var data [mem.WordsPerLine]uint32
			data[i] = uint32(step) + 1
			send(l, mem.Bit(i), &data)
		case 4:
			f := inflight[w]
			unmatched := b.WTAcked(l, mem.Bit(i))
			if (unmatched != 0) != (f == nil) {
				t.Fatalf("step %d: WTAcked(%v) unmatched %v with %v in flight", step, w, unmatched, f)
			}
			if f != nil {
				if f.vals = f.vals[1:]; len(f.vals) == 0 {
					delete(inflight, w)
				}
			}
		default:
			v := uint32(step) + 1
			if _, ev := b.Insert(w, v); ev != nil {
				for j := 0; j < mem.WordsPerLine; j++ {
					if ev.Mask.Has(j) {
						delete(buffered, ev.Line.Word(j))
					}
				}
				send(ev.Line, ev.Mask, &ev.Data)
			}
			buffered[w] = v
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if b.Len() != len(buffered) || b.WTWords() != len(inflight) {
			t.Fatalf("step %d: Len %d WTWords %d, want %d and %d", step, b.Len(), b.WTWords(), len(buffered), len(inflight))
		}
		for _, l := range lines {
			for j := 0; j < 4; j++ {
				w := l.Word(j)
				want, ok := buffered[w]
				if f := inflight[w]; !ok && f != nil {
					want, ok = f.vals[len(f.vals)-1], true
				}
				if got, gotOK := b.Newest(w); got != want || gotOK != ok {
					t.Fatalf("step %d: Newest(%v) = %d, %v; want %d, %v", step, w, got, gotOK, want, ok)
				}
			}
		}
	}
}
