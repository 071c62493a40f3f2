package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	if WordsPerLine != 16 {
		t.Fatalf("WordsPerLine = %d, want 16", WordsPerLine)
	}
	a := Addr(0x1234)
	if !a.Aligned() {
		t.Fatal("0x1234 should be word aligned")
	}
	if a.LineOf() != Line(0x48) {
		t.Fatalf("LineOf(0x1234) = %v", a.LineOf())
	}
	if a.WordOf() != Word(0x48D) {
		t.Fatalf("WordOf(0x1234) = %v", a.WordOf())
	}
	if a.WordIndex() != 13 {
		t.Fatalf("WordIndex(0x1234) = %d, want 13", a.WordIndex())
	}
}

// Property: word/line round trips are consistent for any address.
func TestAddressRoundTripProperty(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw &^ 3) // word align
		w := a.WordOf()
		l := a.LineOf()
		return w.Addr() == a &&
			w.LineOf() == l &&
			l.Word(w.Index()) == w &&
			a.WordIndex() == w.Index() &&
			l.Addr().LineOf() == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordMask(t *testing.T) {
	m := Bit(0) | Bit(5) | Bit(15)
	if m.Count() != 3 {
		t.Fatalf("Count = %d, want 3", m.Count())
	}
	if !m.Has(5) || m.Has(6) {
		t.Fatal("Has gives wrong membership")
	}
	if AllWords.Count() != WordsPerLine {
		t.Fatalf("AllWords.Count = %d", AllWords.Count())
	}
}

// Property: mask count equals number of set bits for any mask.
func TestWordMaskCountProperty(t *testing.T) {
	f := func(m uint16) bool {
		mask := WordMask(m)
		n := 0
		for i := 0; i < 16; i++ {
			if m&(1<<i) != 0 {
				n++
			}
		}
		return mask.Count() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBackingReadWrite(t *testing.T) {
	b := NewBacking()
	if b.Read(Word(10)) != 0 {
		t.Fatal("unwritten word should read 0")
	}
	b.Write(Word(10), 42)
	if b.Read(Word(10)) != 42 {
		t.Fatal("write not visible")
	}
}

// The zero Backing is an empty image: it reads zeros and accepts
// writes without a constructor.
func TestBackingZeroValue(t *testing.T) {
	var b Backing
	if b.Read(1) != 0 || b.ReadLine(3) != [WordsPerLine]uint32{} {
		t.Fatal("zero Backing should read zeros")
	}
	b.Write(1, 2)
	if got := b.Read(1); got != 2 {
		t.Fatalf("Read after Write = %d, want 2", got)
	}
	var z Backing
	z.WriteLine(5, [WordsPerLine]uint32{7}, Bit(0))
	if got := z.Read(Line(5).Word(0)); got != 7 {
		t.Fatalf("Read after WriteLine = %d, want 7", got)
	}
}

func TestBackingLineOps(t *testing.T) {
	b := NewBacking()
	var vals [WordsPerLine]uint32
	for i := range vals {
		vals[i] = uint32(i * 100)
	}
	l := Line(7)
	b.WriteLine(l, vals, Bit(3)|Bit(4))
	got := b.ReadLine(l)
	for i := range got {
		want := uint32(0)
		if i == 3 || i == 4 {
			want = uint32(i * 100)
		}
		if got[i] != want {
			t.Fatalf("word %d = %d, want %d (mask-selective write leaked)", i, got[i], want)
		}
	}
	b.WriteLine(l, vals, AllWords)
	got = b.ReadLine(l)
	for i := range got {
		if got[i] != vals[i] {
			t.Fatalf("full-line write word %d = %d, want %d", i, got[i], vals[i])
		}
	}
}

// Property: a masked line write followed by a read returns written values
// under the mask and leaves others untouched.
func TestBackingMaskedWriteProperty(t *testing.T) {
	f := func(line uint32, m uint16, seedVals [WordsPerLine]uint32) bool {
		b := NewBacking()
		l := Line(line)
		base := [WordsPerLine]uint32{}
		for i := range base {
			base[i] = uint32(i) + 1
		}
		b.WriteLine(l, base, AllWords)
		b.WriteLine(l, seedVals, WordMask(m))
		got := b.ReadLine(l)
		for i := 0; i < WordsPerLine; i++ {
			want := base[i]
			if WordMask(m).Has(i) {
				want = seedVals[i]
			}
			if got[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBackingDifferential drives the paged image and a per-word map
// through a seeded mix of word, line and in-place accesses. Lines are
// drawn from both ends of a page, across page boundaries and above
// 1<<40, so page numbering and line offsets are exercised everywhere.
func TestBackingDifferential(t *testing.T) {
	var lines []Line
	for _, base := range []Word{0, 1 << 40, 1<<40 + 3*pageWords, 1<<50 - pageWords} {
		for _, off := range []Word{0, WordsPerLine, pageWords - WordsPerLine, pageWords, 2*pageWords - WordsPerLine} {
			lines = append(lines, (base + off).LineOf())
		}
	}
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		var b Backing
		ref := map[Word]uint32{}
		refLine := func(l Line) (vals [WordsPerLine]uint32) {
			for i := range vals {
				vals[i] = ref[l.Word(i)]
			}
			return vals
		}
		for op := 0; op < 20000; op++ {
			l := lines[rng.Intn(len(lines))]
			w := l.Word(rng.Intn(WordsPerLine))
			switch rng.Intn(5) {
			case 0:
				v := rng.Uint32()
				b.Write(w, v)
				ref[w] = v
			case 1:
				var vals [WordsPerLine]uint32
				for i := range vals {
					vals[i] = rng.Uint32()
				}
				mask := WordMask(rng.Uint32())
				b.WriteLine(l, vals, mask)
				for i := range vals {
					if mask.Has(i) {
						ref[l.Word(i)] = vals[i]
					}
				}
			case 2:
				v := rng.Uint32()
				b.LineWords(l)[w.Index()] = v
				ref[w] = v
			case 3:
				if got, want := b.Read(w), ref[w]; got != want {
					t.Fatalf("seed %d op %d: Read(%v) = %d, want %d", seed, op, w, got, want)
				}
			case 4:
				if got, want := b.ReadLine(l), refLine(l); got != want {
					t.Fatalf("seed %d op %d: ReadLine(%v) = %v, want %v", seed, op, l, got, want)
				}
				if got, want := [WordsPerLine]uint32(b.LineWords(l)), refLine(l); got != want {
					t.Fatalf("seed %d op %d: LineWords(%v) = %v, want %v", seed, op, l, got, want)
				}
			}
		}
		for _, l := range lines {
			if got, want := b.ReadLine(l), refLine(l); got != want {
				t.Fatalf("seed %d final: ReadLine(%v) = %v, want %v", seed, l, got, want)
			}
		}
	}
}

// A LineWords slice aliases the image for its whole lifetime: later
// writes to other pages do not move it.
func TestLineWordsStaysLive(t *testing.T) {
	var b Backing
	row := b.LineWords(9)
	for w := Word(0); w < 64*pageWords; w += pageWords {
		b.Write(w+1<<30, 1)
	}
	b.Write(Line(9).Word(4), 44)
	if row[4] != 44 {
		t.Fatalf("row[4] = %d, want 44: LineWords slice no longer aliases the image", row[4])
	}
	row[5] = 55
	if got := b.Read(Line(9).Word(5)); got != 55 {
		t.Fatalf("Read after in-place write = %d, want 55", got)
	}
}

// Reading absent words allocates nothing, and once a page is live,
// rewriting or reading it allocates nothing either.
func TestBackingAllocs(t *testing.T) {
	var b Backing
	if n := testing.AllocsPerRun(100, func() {
		_ = b.Read(1 << 33)
		_ = b.ReadLine(1 << 40)
	}); n != 0 {
		t.Fatalf("absent reads: %v allocs/run, want 0", n)
	}
	b.Write(0, 1)
	b.Write(pageWords, 1)
	v := uint32(0)
	if n := testing.AllocsPerRun(100, func() {
		v++
		for w := Word(0); w < 2*pageWords; w += 97 {
			b.Write(w, v)
		}
		b.WriteLine(3, [WordsPerLine]uint32{v}, AllWords)
		b.LineWords(70)[0] = v
		_ = b.ReadLine(3)
	}); n != 0 {
		t.Fatalf("rewrites of live pages: %v allocs/run, want 0", n)
	}
}
