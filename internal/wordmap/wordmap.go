// Package wordmap provides a compact open-addressed hash table keyed
// by uint64 — mem.Word, mem.Line, block numbers or transaction ids. It
// exists for the protocol hot paths (denovo, gpucoh, the store buffer's
// line index, the L2 registry's block index), where the Go builtin
// map[mem.Word]T showed up as the dominant lookup and allocation cost:
// an open-addressed table with linear probing keeps the key/value
// arrays dense, reuses its backing storage across insert/delete
// churn, and never allocates per entry.
//
// The table is NOT safe for concurrent use, exactly like the builtin
// map. Iteration order (ForEach) is the probe order of the backing
// array — deterministic for a fixed insertion history but otherwise
// unspecified, so behavioral code must not depend on it (the same
// contract the simulator already imposed on builtin-map iteration).
package wordmap

// minCap is the initial bucket count of a table that has seen at
// least one insert. Must be a power of two.
const minCap = 16

// maxLoadNum/maxLoadDen: grow when n exceeds 3/4 of capacity.
const (
	maxLoadNum = 3
	maxLoadDen = 4
)

// Map is an open-addressed hash table from uint64 to V with linear
// probing and backward-shift deletion. The zero value is an empty map
// ready for use.
type Map[V any] struct {
	keys []uint64
	vals []V
	live []bool
	n    int
}

// mix is the splitmix64 finalizer: a full-avalanche bijection so that
// low-entropy keys (word addresses share low bits; line numbers are
// sequential) spread over the table.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.n }

// Get returns the value stored for k.
func (m *Map[V]) Get(k uint64) (V, bool) {
	if m.n != 0 {
		mask := uint64(len(m.keys) - 1)
		for i := mix(k) & mask; m.live[i]; i = (i + 1) & mask {
			if m.keys[i] == k {
				return m.vals[i], true
			}
		}
	}
	var zero V
	return zero, false
}

// Has reports whether k is present.
func (m *Map[V]) Has(k uint64) bool {
	_, ok := m.Get(k)
	return ok
}

// Ptr returns a pointer to the value stored for k, or false if k is
// absent. The pointer is valid only until the next Put/Upsert/Delete.
func (m *Map[V]) Ptr(k uint64) (*V, bool) {
	if m.n != 0 {
		mask := uint64(len(m.keys) - 1)
		for i := mix(k) & mask; m.live[i]; i = (i + 1) & mask {
			if m.keys[i] == k {
				return &m.vals[i], true
			}
		}
	}
	return nil, false
}

// Put stores v under k, replacing any previous value.
func (m *Map[V]) Put(k uint64, v V) { *m.Upsert(k) = v }

// Upsert returns a pointer to the value stored for k, inserting the
// zero value first if k is absent. The pointer is valid only until
// the next Put/Upsert/Delete on the map.
//
// The existence probe runs before the load check: updating a key that
// is already present never grows the table, so value pointers handed
// out by earlier Upserts of other keys are only invalidated by true
// insertions.
func (m *Map[V]) Upsert(k uint64) *V {
	if len(m.keys) != 0 {
		mask := uint64(len(m.keys) - 1)
		i := mix(k) & mask
		for m.live[i] {
			if m.keys[i] == k {
				return &m.vals[i]
			}
			i = (i + 1) & mask
		}
		if (m.n+1)*maxLoadDen <= len(m.keys)*maxLoadNum {
			m.live[i] = true
			m.keys[i] = k
			var zero V
			m.vals[i] = zero
			m.n++
			return &m.vals[i]
		}
	}
	m.grow()
	mask := uint64(len(m.keys) - 1)
	i := mix(k) & mask
	for m.live[i] {
		i = (i + 1) & mask
	}
	m.live[i] = true
	m.keys[i] = k
	m.n++
	return &m.vals[i]
}

// Reset empties the map while keeping its backing storage, so a table
// reused across rounds (the coalescer's per-instruction index) reaches
// steady state with zero allocations.
func (m *Map[V]) Reset() {
	if m.n == 0 {
		return
	}
	var zero V
	for i := range m.live {
		m.live[i] = false
		m.vals[i] = zero
	}
	m.n = 0
}

// Delete removes k, reporting whether it was present. Deletion uses
// backward shift, so the table never accumulates tombstones and probe
// chains stay short under churn.
func (m *Map[V]) Delete(k uint64) bool {
	if m.n == 0 {
		return false
	}
	mask := uint64(len(m.keys) - 1)
	for i := mix(k) & mask; m.live[i]; i = (i + 1) & mask {
		if m.keys[i] == k {
			m.removeAt(i, mask)
			return true
		}
	}
	return false
}

// removeAt vacates slot i, then shifts any displaced successors back
// so every remaining entry stays reachable from its home slot.
func (m *Map[V]) removeAt(i, mask uint64) {
	m.n--
	var zero V
	for {
		m.live[i] = false
		m.vals[i] = zero
		j := i
		for {
			j = (j + 1) & mask
			if !m.live[j] {
				return
			}
			h := mix(m.keys[j]) & mask
			// The entry at j may fill slot i iff i lies on j's probe
			// path, i.e. dist(h→j) >= dist(i→j) cyclically.
			if (j-h)&mask >= (j-i)&mask {
				m.keys[i] = m.keys[j]
				m.vals[i] = m.vals[j]
				m.live[i] = true
				i = j
				break
			}
		}
	}
}

// ForEach calls fn for every entry, in backing-array order. The map
// must not be mutated during iteration.
func (m *Map[V]) ForEach(fn func(k uint64, v V)) {
	for i, ok := range m.live {
		if ok {
			fn(m.keys[i], m.vals[i])
		}
	}
}

// Keys appends every key to dst and returns it (unsorted).
func (m *Map[V]) Keys(dst []uint64) []uint64 {
	for i, ok := range m.live {
		if ok {
			dst = append(dst, m.keys[i])
		}
	}
	return dst
}

func (m *Map[V]) grow() {
	newCap := minCap
	if len(m.keys) > 0 {
		newCap = len(m.keys) * 2
	}
	oldKeys, oldVals, oldLive := m.keys, m.vals, m.live
	m.keys = make([]uint64, newCap)
	m.vals = make([]V, newCap)
	m.live = make([]bool, newCap)
	mask := uint64(newCap - 1)
	for i, ok := range oldLive {
		if !ok {
			continue
		}
		j := mix(oldKeys[i]) & mask
		for m.live[j] {
			j = (j + 1) & mask
		}
		m.live[j] = true
		m.keys[j] = oldKeys[i]
		m.vals[j] = oldVals[i]
	}
}
