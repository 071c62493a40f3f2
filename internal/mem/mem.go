// Package mem defines the address geometry and the flat backing store
// shared by every component of the simulated memory hierarchy.
//
// The simulated machine uses 4-byte words and 64-byte cache lines
// (16 words per line), matching the paper's configuration. Coherence
// state in the DeNovo protocol is kept at word granularity while tags
// and transfers use line granularity, so both units appear throughout
// the codebase; this package centralizes the arithmetic.
package mem

import "fmt"

// Geometry constants. These are fixed for the whole simulator: the
// paper's protocols assume 4 B words, and GPU caches use 64 B lines.
const (
	WordBytes    = 4
	LineBytes    = 64
	WordsPerLine = LineBytes / WordBytes
)

// Addr is a byte address in the unified shared address space.
type Addr uint64

// Line identifies a cache line (Addr >> 6).
type Line uint64

// Word identifies a 4-byte word (Addr >> 2).
type Word uint64

// LineOf returns the cache line containing a.
func (a Addr) LineOf() Line { return Line(a / LineBytes) }

// WordOf returns the word containing a.
func (a Addr) WordOf() Word { return Word(a / WordBytes) }

// WordIndex returns the index of a's word within its line (0..15).
func (a Addr) WordIndex() int { return int(a % LineBytes / WordBytes) }

// Aligned reports whether a is word aligned. Every access in the
// simulator is word aligned; the paper's benchmarks have no byte
// granularity accesses (its footnote 1).
func (a Addr) Aligned() bool { return a%WordBytes == 0 }

// Addr returns the byte address of the first byte of the line.
func (l Line) Addr() Addr { return Addr(l) * LineBytes }

// Word returns the i'th word of the line.
func (l Line) Word(i int) Word { return Word(l)*WordsPerLine + Word(i) }

// Addr returns the byte address of the word.
func (w Word) Addr() Addr { return Addr(w) * WordBytes }

// LineOf returns the line containing the word.
func (w Word) LineOf() Line { return Line(w / WordsPerLine) }

// Index returns the word's index within its line (0..15).
func (w Word) Index() int { return int(w % WordsPerLine) }

func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }
func (l Line) String() string { return fmt.Sprintf("line 0x%x", uint64(l)) }
func (w Word) String() string { return fmt.Sprintf("word 0x%x", uint64(w)) }

// WordMask is a bitmask over the 16 words of a line.
type WordMask uint16

// AllWords covers every word of a line.
const AllWords WordMask = 1<<WordsPerLine - 1

// Bit returns the mask with only word index i set.
func Bit(i int) WordMask { return 1 << uint(i) }

// Has reports whether word index i is in the mask.
func (m WordMask) Has(i int) bool { return m&Bit(i) != 0 }

// Count returns the number of words in the mask.
func (m WordMask) Count() int {
	n := 0
	for i := 0; i < WordsPerLine; i++ {
		if m.Has(i) {
			n++
		}
	}
	return n
}

// Page geometry of the backing image: 4 KB pages of 1024 words, so a
// page holds 64 whole lines and a line never straddles two pages.
const (
	pageShift = 10
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

type page [pageWords]uint32

// Backing is the flat main-memory image. It carries real data values so
// the simulation is functional as well as timed: benchmarks compute real
// results that tests verify. It is also the only copy of line data in
// the machine: the L2 banks read and write a resident line in place
// through LineWords, so DRAM and the L2 data array share storage (each
// line has exactly one home bank).
//
// The image is paged: a page directory maps a page number to a page
// allocated on first write. The zero value is ready to use; absent
// words read as zero, like zero-initialized device memory, without
// allocating.
type Backing struct {
	pages map[uint64]*page
}

// NewBacking returns an empty backing store.
func NewBacking() *Backing { return &Backing{} }

// lookup returns the page holding word w, or nil if it was never
// written.
func (b *Backing) lookup(w Word) *page { return b.pages[uint64(w)>>pageShift] }

// pageOf returns the page holding word w, allocating it if absent.
func (b *Backing) pageOf(w Word) *page {
	if p := b.lookup(w); p != nil {
		return p
	}
	if b.pages == nil {
		b.pages = make(map[uint64]*page)
	}
	p := new(page)
	b.pages[uint64(w)>>pageShift] = p
	return p
}

// Read returns the value of word w.
func (b *Backing) Read(w Word) uint32 {
	if p := b.lookup(w); p != nil {
		return p[w&pageMask]
	}
	return 0
}

// Write sets the value of word w.
func (b *Backing) Write(w Word, v uint32) { b.pageOf(w)[w&pageMask] = v }

// ReadLine returns all 16 words of line l.
func (b *Backing) ReadLine(l Line) (vals [WordsPerLine]uint32) {
	w := l.Word(0)
	if p := b.lookup(w); p != nil {
		vals = [WordsPerLine]uint32(p[w&pageMask:])
	}
	return vals
}

// WriteLine stores the words of l selected by mask.
func (b *Backing) WriteLine(l Line, vals [WordsPerLine]uint32, mask WordMask) {
	words := b.LineWords(l)
	for i := range words {
		if mask.Has(i) {
			words[i] = vals[i]
		}
	}
}

// LineWords returns the 16 words of line l in place, allocating the
// line's page if absent. The slice aliases the image and stays valid
// for the image's lifetime: writes through it are writes to memory.
func (b *Backing) LineWords(l Line) []uint32 {
	w := l.Word(0)
	off := w & pageMask
	return b.pageOf(w)[off : off+WordsPerLine : off+WordsPerLine]
}
