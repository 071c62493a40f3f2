package wordmap

import (
	"math/rand"
	"testing"
)

// TestDifferential drives a Map[int] and a builtin map[uint64]int with
// the same randomized op stream and requires identical observable
// state after every op. Keys are drawn from a small range so that
// insert/overwrite/delete collisions are frequent, and include 0
// (a valid word address).
func TestDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 99} {
		rng := rand.New(rand.NewSource(seed))
		var m Map[int]
		ref := map[uint64]int{}
		keyOf := func() uint64 {
			// Mix tiny keys, line-aligned keys, and huge keys.
			switch rng.Intn(3) {
			case 0:
				return uint64(rng.Intn(64))
			case 1:
				return uint64(rng.Intn(64)) << 4
			default:
				return rng.Uint64()>>1 | 1<<62
			}
		}
		keys := make([]uint64, 0, 256)
		for i := 0; i < 20000; i++ {
			k := keyOf()
			if len(keys) > 0 && rng.Intn(2) == 0 {
				k = keys[rng.Intn(len(keys))]
			}
			switch rng.Intn(4) {
			case 0, 1: // put
				v := rng.Int()
				m.Put(k, v)
				ref[k] = v
				keys = append(keys, k)
			case 2: // delete
				got := m.Delete(k)
				_, want := ref[k]
				if got != want {
					t.Fatalf("seed %d op %d: Delete(%#x) = %v, want %v", seed, i, k, got, want)
				}
				delete(ref, k)
			case 3: // upsert +1
				*m.Upsert(k)++
				ref[k]++
				keys = append(keys, k)
			}
			if m.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len = %d, want %d", seed, i, m.Len(), len(ref))
			}
			// Spot-check a few keys every op, all keys occasionally.
			if i%512 == 0 {
				for rk, rv := range ref {
					if got, ok := m.Get(rk); !ok || got != rv {
						t.Fatalf("seed %d op %d: Get(%#x) = %d,%v want %d,true", seed, i, rk, got, ok, rv)
					}
				}
				seen := map[uint64]int{}
				m.ForEach(func(k uint64, v int) { seen[k] = v })
				if len(seen) != len(ref) {
					t.Fatalf("seed %d op %d: ForEach visited %d entries, want %d", seed, i, len(seen), len(ref))
				}
			} else {
				if got, ok := m.Get(k); ok != func() bool { _, o := ref[k]; return o }() || (ok && got != ref[k]) {
					t.Fatalf("seed %d op %d: Get(%#x) mismatch", seed, i, k)
				}
			}
		}
	}
}

func TestZeroKeyAndZeroValue(t *testing.T) {
	var m Map[int]
	if _, ok := m.Get(0); ok {
		t.Fatal("empty map reported key 0 present")
	}
	m.Put(0, 0)
	if v, ok := m.Get(0); !ok || v != 0 {
		t.Fatalf("Get(0) = %d,%v want 0,true", v, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	if !m.Delete(0) {
		t.Fatal("Delete(0) = false, want true")
	}
	if m.Len() != 0 || m.Has(0) {
		t.Fatal("key 0 still present after delete")
	}
}

// TestChurn exercises backward-shift deletion under a fill/drain cycle
// that forces long probe chains (sequential line numbers collide after
// masking).
func TestChurn(t *testing.T) {
	var m Map[uint64]
	for round := 0; round < 50; round++ {
		base := uint64(round * 1000)
		for k := base; k < base+300; k++ {
			m.Put(k, k*2)
		}
		for k := base; k < base+300; k += 2 {
			if !m.Delete(k) {
				t.Fatalf("round %d: Delete(%d) missing", round, k)
			}
		}
		for k := base + 1; k < base+300; k += 2 {
			if v, ok := m.Get(k); !ok || v != k*2 {
				t.Fatalf("round %d: Get(%d) = %d,%v", round, k, v, ok)
			}
		}
		for k := base + 1; k < base+300; k += 2 {
			m.Delete(k)
		}
		if m.Len() != 0 {
			t.Fatalf("round %d: Len = %d after drain", round, m.Len())
		}
	}
}

func BenchmarkPutGetDelete(b *testing.B) {
	var m Map[uint64]
	for i := 0; i < b.N; i++ {
		k := uint64(i) & 1023
		m.Put(k, uint64(i))
		m.Get(k ^ 511)
		if i&7 == 7 {
			m.Delete(k)
		}
	}
}

func BenchmarkBuiltinPutGetDelete(b *testing.B) {
	m := map[uint64]uint64{}
	for i := 0; i < b.N; i++ {
		k := uint64(i) & 1023
		m[k] = uint64(i)
		_ = m[k^511]
		if i&7 == 7 {
			delete(m, k)
		}
	}
}

// TestUpsertExistingKeyDoesNotGrow pins the fix for an Upsert defect:
// the load-factor check used to run before the existence probe, so
// upserting a key that was ALREADY PRESENT in a table sitting exactly
// at the load threshold grew (rehashed) the table anyway. Growth
// invalidates every value pointer previously handed out by Upsert/Ptr,
// so the protocol controllers — which hold such pointers across
// "update this word's state" sequences — would have read freed rows.
// The contract (documented on Upsert) is: updating an existing key
// never grows the table.
func TestUpsertExistingKeyDoesNotGrow(t *testing.T) {
	var m Map[int]
	// Fill to the exact load threshold: the NEXT true insertion must
	// grow, but an update of an existing key must not.
	m.Put(0, 0)
	for (m.n+1)*maxLoadDen <= len(m.keys)*maxLoadNum {
		m.Put(uint64(m.n), m.n)
	}
	capBefore := len(m.keys)
	ptrBefore, ok := m.Ptr(0)
	if !ok {
		t.Fatal("key 0 missing")
	}
	for i := 0; i < 4; i++ {
		p := m.Upsert(0)
		if p != ptrBefore {
			t.Fatalf("Upsert(existing) moved the value: got %p want %p (table grew from %d to %d buckets)",
				p, ptrBefore, capBefore, len(m.keys))
		}
	}
	if len(m.keys) != capBefore {
		t.Fatalf("Upsert(existing) grew the table: %d -> %d buckets", capBefore, len(m.keys))
	}
	// Sanity: a genuinely new key at the threshold does grow.
	m.Upsert(1 << 40)
	if len(m.keys) == capBefore {
		t.Fatalf("insertion at load threshold did not grow the table")
	}
}

// FuzzMapVsBuiltin drives Map[uint32] and a builtin map with an op
// stream decoded from fuzz input. `go test` runs the seed corpus; `go
// test -fuzz=FuzzMapVsBuiltin` explores further.
func FuzzMapVsBuiltin(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x42, 0x01, 0x11, 0x02, 0x11})
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x01, 0x00})
	f.Add([]byte{0x03, 0x07, 0x03, 0x07, 0x02, 0x07, 0x03, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Map[uint32]
		ref := map[uint64]uint32{}
		for i := 0; i+1 < len(data); i += 2 {
			op, kb := data[i]&3, data[i+1]
			// Two key shapes: small dense and line-aligned sparse.
			k := uint64(kb)
			if kb&1 == 1 {
				k = uint64(kb) << 6
			}
			switch op {
			case 0: // put
				m.Put(k, uint32(kb)+1)
				ref[k] = uint32(kb) + 1
			case 1: // delete
				got := m.Delete(k)
				_, want := ref[k]
				if got != want {
					t.Fatalf("Delete(%#x) = %v, want %v", k, got, want)
				}
				delete(ref, k)
			case 2: // upsert increment
				*m.Upsert(k)++
				ref[k]++
			case 3: // get
				got, ok := m.Get(k)
				want, wantOk := ref[k]
				if ok != wantOk || got != want {
					t.Fatalf("Get(%#x) = %d,%v want %d,%v", k, got, ok, want, wantOk)
				}
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
		}
		for k, v := range ref {
			if got, ok := m.Get(k); !ok || got != v {
				t.Fatalf("final Get(%#x) = %d,%v want %d,true", k, got, ok, v)
			}
		}
	})
}
