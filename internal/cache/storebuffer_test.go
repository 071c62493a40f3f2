package cache

import (
	"testing"
	"testing/quick"

	"denovogpu/internal/mem"
)

func TestStoreBufferCoalesce(t *testing.T) {
	b := NewStoreBuffer(4)
	co, ev := b.Insert(mem.Word(1), 10)
	if co || ev != nil {
		t.Fatal("first insert should not coalesce or evict")
	}
	co, ev = b.Insert(mem.Word(1), 20)
	if !co || ev != nil {
		t.Fatal("second write to same word must coalesce")
	}
	if v, _ := b.Lookup(mem.Word(1)); v != 20 {
		t.Fatalf("coalesced value = %d, want 20", v)
	}
	if b.Len() != 1 {
		t.Fatalf("len = %d, want 1", b.Len())
	}
}

func TestStoreBufferOverflowEvictsOldestLineGroup(t *testing.T) {
	b := NewStoreBuffer(2)
	// Words 1 and 2 share line 0; overflow drains them together.
	b.Insert(mem.Word(1), 10)
	b.Insert(mem.Word(2), 20)
	co, ev := b.Insert(mem.Word(100), 30)
	if co {
		t.Fatal("distinct word should not coalesce")
	}
	if ev == nil || ev.Line != mem.Line(0) || ev.Mask != mem.Bit(1)|mem.Bit(2) {
		t.Fatalf("overflow should evict the oldest line group, got %+v", ev)
	}
	if ev.Data[1] != 10 || ev.Data[2] != 20 {
		t.Fatalf("evicted data wrong: %+v", ev)
	}
	// Word 1 can no longer coalesce: this is the LavaMD effect.
	co, _ = b.Insert(mem.Word(1), 11)
	if co {
		t.Fatal("evicted word must not coalesce with its old slot")
	}
}

func TestStoreBufferOverflowCrossLine(t *testing.T) {
	b := NewStoreBuffer(3)
	b.Insert(mem.Word(0), 1)  // line 0
	b.Insert(mem.Word(20), 2) // line 1
	b.Insert(mem.Word(1), 3)  // line 0 again
	_, ev := b.Insert(mem.Word(40), 4)
	if ev == nil || ev.Line != mem.Line(0) || ev.Mask.Count() != 2 {
		t.Fatalf("should evict both line-0 words, got %+v", ev)
	}
	if v, ok := b.Lookup(mem.Word(20)); !ok || v != 2 {
		t.Fatal("line-1 word must survive the line-0 eviction")
	}
}

func TestStoreBufferDrainOrder(t *testing.T) {
	b := NewStoreBuffer(8)
	words := []mem.Word{5, 3, 9, 3, 7}
	for i, w := range words {
		b.Insert(w, uint32(i))
	}
	got := b.DrainAll()
	want := []SBEntry{{5, 0}, {3, 3}, {9, 2}, {7, 4}}
	if len(got) != len(want) {
		t.Fatalf("drained %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if b.Len() != 0 {
		t.Fatal("drain must empty the buffer")
	}
}

func TestStoreBufferRemove(t *testing.T) {
	b := NewStoreBuffer(4)
	b.Insert(mem.Word(1), 10)
	v, ok := b.Remove(mem.Word(1))
	if !ok || v != 10 {
		t.Fatal("remove failed")
	}
	if _, ok := b.Remove(mem.Word(1)); ok {
		t.Fatal("double remove should miss")
	}
	// fifo should not break after removes interleaved with inserts.
	b.Insert(mem.Word(2), 20)
	b.Insert(mem.Word(3), 30)
	b.Remove(mem.Word(2))
	b.Insert(mem.Word(4), 40)
	got := b.DrainAll()
	if len(got) != 2 || got[0].Word != 3 || got[1].Word != 4 {
		t.Fatalf("drain after removes = %+v", got)
	}
}

// Property: the buffer never exceeds capacity, and total inserts =
// coalesced + evicted + remaining.
func TestStoreBufferAccountingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		b := NewStoreBuffer(16)
		coalesced, evictedWords := 0, 0
		for i, op := range ops {
			co, ev := b.Insert(mem.Word(op%40), uint32(i))
			if co {
				coalesced++
			}
			if ev != nil {
				evictedWords += ev.Mask.Count()
			}
			if b.Len() > b.Cap() {
				return false
			}
		}
		return len(ops) == coalesced+evictedWords+b.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: latest value wins — for any op sequence, Lookup returns the
// value of the most recent insert of that word (if still buffered).
func TestStoreBufferLatestValueProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		b := NewStoreBuffer(64) // big enough to avoid eviction for ≤ 64 distinct
		latest := map[mem.Word]uint32{}
		for i, op := range ops {
			w := mem.Word(op % 50)
			b.Insert(w, uint32(i))
			latest[w] = uint32(i)
		}
		for w, want := range latest {
			if got, ok := b.Lookup(w); !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupByLine(t *testing.T) {
	entries := []SBEntry{
		{Word: mem.Word(0), Val: 1},  // line 0, idx 0
		{Word: mem.Word(17), Val: 2}, // line 1, idx 1
		{Word: mem.Word(3), Val: 3},  // line 0, idx 3
	}
	groups := GroupByLine(entries)
	if len(groups) != 2 {
		t.Fatalf("%d groups, want 2", len(groups))
	}
	if groups[0].Line != 0 || groups[0].Mask != mem.Bit(0)|mem.Bit(3) {
		t.Fatalf("group 0 wrong: %+v", groups[0])
	}
	if groups[0].Data[0] != 1 || groups[0].Data[3] != 3 {
		t.Fatal("group 0 data wrong")
	}
	if groups[1].Line != 1 || groups[1].Mask != mem.Bit(1) || groups[1].Data[1] != 2 {
		t.Fatalf("group 1 wrong: %+v", groups[1])
	}
}

// Property: grouping preserves every entry exactly once.
func TestGroupByLineCompleteProperty(t *testing.T) {
	f := func(words []uint16) bool {
		seen := map[mem.Word]bool{}
		var entries []SBEntry
		for i, w := range words {
			word := mem.Word(w)
			if seen[word] {
				continue // GroupByLine input comes from a coalescing buffer: distinct words
			}
			seen[word] = true
			entries = append(entries, SBEntry{Word: word, Val: uint32(i)})
		}
		groups := GroupByLine(entries)
		total := 0
		for _, g := range groups {
			total += g.Mask.Count()
		}
		if total != len(entries) {
			return false
		}
		for _, e := range entries {
			found := false
			for _, g := range groups {
				if g.Line == e.Word.LineOf() && g.Mask.Has(e.Word.Index()) && g.Data[e.Word.Index()] == e.Val {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestVictimBuffer(t *testing.T) {
	v := NewVictimBuffer()
	v.Put(mem.Word(9), 77)
	if got, ok := v.Get(mem.Word(9)); !ok || got != 77 {
		t.Fatal("victim buffer get failed")
	}
	v.Drop(mem.Word(9))
	if _, ok := v.Get(mem.Word(9)); ok {
		t.Fatal("dropped word still present")
	}
	if v.Len() != 0 {
		t.Fatal("len after drop should be 0")
	}
}

// An overflowing Insert hands back the buffer's own eviction group, so
// steady-state overflow allocates nothing.
func TestStoreBufferOverflowAllocatesNothing(t *testing.T) {
	const capacity = 4
	b := NewStoreBuffer(capacity)
	next := 0
	insert := func() *LineGroup {
		w := mem.Word(next * mem.WordsPerLine) // a fresh line each time
		next++
		_, ev := b.Insert(w, uint32(next))
		return ev
	}
	for next < capacity {
		insert()
	}
	if n := testing.AllocsPerRun(200, func() {
		if insert() == nil {
			t.Fatal("full buffer did not evict")
		}
	}); n != 0 {
		t.Errorf("evicting Insert: %v allocs per call, want 0", n)
	}
}
