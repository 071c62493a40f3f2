// Dense-id table allocator: the struct-of-arrays backbone of the
// devirtualized hot path.
//
// Per-line and per-word state keyed by full 64-bit addresses costs a
// hash probe per word (or, worse, a builtin map lookup). An IDTable
// instead assigns each distinct line a small dense id in first-touch
// order — deterministic, because the simulator is single-threaded per
// machine and event order is pinned — and the state that would live
// behind a hash probe becomes a flat slice indexed by id*width+word
// (one value per word: WordTable). Lookups on the access path collapse
// to one hash probe to translate the address, then plain array
// arithmetic; tables sharing one IDTable stay index-compatible for free.
//
// Ids are never recycled: lines that go cold keep their slot. The
// simulator touches a bounded working set per run (the workloads' data
// footprints), so the tables stay small, and stable ids are what makes
// the first-touch order — and therefore every downstream iteration that
// sorts by address anyway — reproducible run to run.
package wordmap

// NoID is returned by Lookup for keys that have not been assigned.
const NoID int32 = -1

// IDTable assigns dense int32 ids to uint64 keys in first-touch order.
// The zero value is ready for use.
type IDTable struct {
	// ids stores id+1 so the map's zero value means "absent" and id 0
	// needs no sentinel.
	ids  Map[int32]
	keys []uint64 // id → key, for reverse lookups and iteration
}

// Len returns the number of assigned ids.
func (t *IDTable) Len() int { return len(t.keys) }

// ID returns the id for k, assigning the next dense id if k is new.
func (t *IDTable) ID(k uint64) int32 {
	p := t.ids.Upsert(k)
	if *p == 0 {
		t.keys = append(t.keys, k)
		*p = int32(len(t.keys))
	}
	return *p - 1
}

// Lookup returns the id for k, or NoID if k has never been assigned.
func (t *IDTable) Lookup(k uint64) (int32, bool) {
	biased, ok := t.ids.Get(k)
	if !ok {
		return NoID, false
	}
	return biased - 1, true
}

// Key returns the key assigned id (the inverse of ID).
func (t *IDTable) Key(id int32) uint64 { return t.keys[id] }

// chunkRows is the number of rows a WordTable allocates at a time.
const chunkRows = 64

// WordTable is a flat per-word table: width consecutive V values per id
// (one row per line, one slot per word). Rows are stored in fixed-size
// chunks of chunkRows rows, so growing the table never copies or moves
// a row. The zero value is unusable; create with NewWordTable.
type WordTable[V any] struct {
	width  int
	chunks [][]V
}

// NewWordTable returns a table with the given row width (the machine's
// words-per-line).
func NewWordTable[V any](width int) *WordTable[V] {
	return &WordTable[V]{width: width}
}

// Row returns the width-element row for id, growing the table as
// needed. The slice aliases the table and stays valid for the table's
// lifetime.
func (t *WordTable[V]) Row(id int32) []V {
	for int(id)/chunkRows >= len(t.chunks) {
		t.chunks = append(t.chunks, make([]V, chunkRows*t.width))
	}
	return t.Peek(id)
}

// Peek returns the row for id without growing, or nil if the row's
// chunk has never been materialized.
func (t *WordTable[V]) Peek(id int32) []V {
	c := int(id) / chunkRows
	if c >= len(t.chunks) {
		return nil
	}
	off := int(id) % chunkRows * t.width
	return t.chunks[c][off : off+t.width : off+t.width]
}
