package cache

import (
	"math/rand"
	"reflect"
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
	w0 := mem.Addr(0x00).WordOf() // line 0, word 0
	w2 := mem.Addr(0x08).WordOf() // line 0, word 2
	w1 := mem.Addr(0x40).WordOf() // line 1, word 0

	// fresh buffers w0 and w2 on line 0 and w1 on line 1, and has two
	// writethroughs of line 1's words 0 and 3 in flight.
	fresh := func() *StoreBuffer {
		b := NewStoreBuffer(4)
		b.Insert(w0, 1)
		b.Insert(w1, 2)
		b.Insert(w2, 3)
		var data [mem.WordsPerLine]uint32
		b.WTSent(w1.LineOf(), mem.Bit(0)|mem.Bit(3), &data)
		b.WTSent(w1.LineOf(), mem.Bit(3), &data)
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("fresh buffer: %v", err)
		}
		return b
	}
	line := func(b *StoreBuffer, w mem.Word) *sbLine {
		e, ok := b.index.Ptr(uint64(w.LineOf()))
		if !ok {
			t.Fatalf("%v not indexed", w.LineOf())
		}
		return e
	}
	slot := func(b *StoreBuffer, w mem.Word) int32 {
		for s := line(b, w).first; s != nilSlot; s = b.pool[s].sib {
			if b.pool[s].word == w {
				return s
			}
		}
		t.Fatalf("%v not chained", w)
		return nilSlot
	}

	for _, tc := range []struct {
		name, want string
		corrupt    func(b *StoreBuffer)
	}{
		{"cross-linked chain", "broken chain", func(b *StoreBuffer) {
			line(b, w0).first = slot(b, w1)
		}},
		{"chain cycle", "broken chain", func(b *StoreBuffer) {
			b.pool[slot(b, w0)].sib = slot(b, w2)
		}},
		{"chain out of the pool", "broken chain", func(b *StoreBuffer) {
			b.pool[slot(b, w0)].sib = int32(len(b.pool))
		}},
		{"chain/mask mismatch", "chains words", func(b *StoreBuffer) {
			line(b, w0).buf |= mem.Bit(5)
		}},
		{"missing index entry", "does not know", func(b *StoreBuffer) {
			b.index.Delete(uint64(w0.LineOf()))
		}},
		{"empty index entry", "none in flight", func(b *StoreBuffer) {
			b.index.Put(7, sbLine{})
		}},
		{"in-flight count/mask mismatch", "writethroughs of word", func(b *StoreBuffer) {
			b.wts[line(b, w1).wts].n[5] = 1
		}},
		{"in-flight words miscounted", "words in flight", func(b *StoreBuffer) {
			b.wtWords++
		}},
		{"shared in-flight record", "held twice", func(b *StoreBuffer) {
			e := line(b, w0)
			e.wt, e.wts = mem.Bit(0)|mem.Bit(3), line(b, w1).wts
		}},
		{"in-flight record leak", "record leak", func(b *StoreBuffer) {
			b.wts = append(b.wts, sbInFlight{})
		}},
		{"in-flight record held and free", "out of range or held", func(b *StoreBuffer) {
			b.wtFree = append(b.wtFree, line(b, w1).wts)
		}},
		{"broken back-pointer", "has prev", func(b *StoreBuffer) {
			b.pool[slot(b, w1)].prev = nilSlot
		}},
		{"stale tail", "tail", func(b *StoreBuffer) {
			b.tail = b.head
		}},
		{"slot both live and free", "pool leak", func(b *StoreBuffer) {
			b.free = append(b.free, slot(b, w0))
		}},
	} {
		b := fresh()
		tc.corrupt(b)
		if err := b.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestStoreBufferWritethroughTracking drives a small buffer through
// random inserts, removes, drains, overflows and multi-word
// writethroughs sent and acked over all 16 words of each line, against
// the reference model's buffered values and per-word in-flight values:
// Newest is the buffered value, else the latest in-flight one; an ack
// reports exactly the words with nothing in flight; in-flight words take
// no slot; and the structure stays valid after every step. Drained and
// evicted groups go out as writethroughs, as GPU coherence sends them.
func TestStoreBufferWritethroughTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	b := NewStoreBuffer(4)
	ref := &refStoreBuffer{cap: 4}
	send := func(l mem.Line, mask mem.WordMask, data *[mem.WordsPerLine]uint32) {
		b.WTSent(l, mask, data)
		ref.WTSent(l, mask, data)
	}
	// A random mask of at most a few words, so words stay in flight
	// across several sends and acks.
	someWords := func() mem.WordMask {
		var m mem.WordMask
		for n := 1 + rng.Intn(4); n > 0; n-- {
			m |= mem.Bit(rng.Intn(mem.WordsPerLine))
		}
		return m
	}
	lines := []mem.Line{0, 1, 2}
	for step := 0; step < 5000; step++ {
		l := lines[rng.Intn(len(lines))]
		w := l.Word(rng.Intn(mem.WordsPerLine))
		switch rng.Intn(8) {
		case 0:
			gv, gok := b.Remove(w)
			if wv, wok := ref.Remove(w); gv != wv || gok != wok {
				t.Fatalf("step %d: Remove(%v) = %d, %v; want %d, %v", step, w, gv, gok, wv, wok)
			}
		case 1:
			groups := b.AppendDrainLines(nil)
			if want := GroupByLine(ref.DrainAll()); !reflect.DeepEqual(groups, want) {
				t.Fatalf("step %d: AppendDrainLines = %+v, want %+v", step, groups, want)
			}
			for _, g := range groups {
				send(g.Line, g.Mask, &g.Data)
			}
		case 2, 3:
			var data [mem.WordsPerLine]uint32
			for i := range data {
				data[i] = uint32(step)<<4 | uint32(i)
			}
			send(l, someWords(), &data)
		case 4:
			mask := someWords()
			if got, want := b.WTAcked(l, mask), ref.WTAcked(l, mask); got != want {
				t.Fatalf("step %d: WTAcked(%v, %016b) unmatched %016b, want %016b", step, l, mask, got, want)
			}
		default:
			v := uint32(step) + 1
			_, ev := b.Insert(w, v)
			if _, want := ref.Insert(w, v); !reflect.DeepEqual(ev, want) {
				t.Fatalf("step %d: Insert(%v) evicted %+v, want %+v", step, w, ev, want)
			}
			if ev != nil {
				send(ev.Line, ev.Mask, &ev.Data)
			}
		}
		checkAgainstRef(t, b, ref, lines, someWords())
	}
}
