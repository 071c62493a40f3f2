package wordmap

import (
	"fmt"
	"math/rand"
	"testing"
)

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

// ---------------------------------------------------------------------
// Property test: the SoA word-state tables (IDTable + WordTable)
// against a plain-map reference model.
//
// The model mirrors how the protocol controllers use the tables: lines
// are keyed by a 64-bit address, each line has a row of per-word states
// and data, plus a per-line owner. Four operations drive both
// representations through the state-machine shapes the protocols
// produce:
//
//	set        — write one word's state+data (the fill/write path)
//	lookup     — read back a word, a whole row, and the owner
//	steal      — registration transfer: the line's owner changes and
//	             its Registered words demote to Valid (DeNovo's
//	             write-registration steal)
//	drop-clean — global selective invalidation: every Valid word on
//	             every line becomes Invalid, Registered words survive
//	             (DeNovo's acquire-time self-invalidation)
//
// After every op the full observable state is compared. On divergence
// the failing op sequence is shrunk to a (locally) minimal reproducer
// before reporting, so the failure output is actionable.

const tblWords = 8

const (
	wsInvalid uint8 = iota
	wsValid
	wsRegistered
)

type tblOp struct {
	kind byte // 's'et, 'l'ookup, 't'steal, 'd'rop-clean
	line uint64
	word int
	st   uint8
	val  uint32
}

func (o tblOp) String() string {
	return fmt.Sprintf("{%c line=%#x word=%d st=%d val=%d}", o.kind, o.line, o.word, o.st, o.val)
}

type refLineState struct {
	st    [tblWords]uint8
	data  [tblWords]uint32
	owner int32
}

type soaLines struct {
	ids   IDTable
	st    *WordTable[uint8]
	data  *WordTable[uint32]
	owner *WordTable[int32] // one slot per line
}

func newSoaLines() *soaLines {
	return &soaLines{st: NewWordTable[uint8](tblWords), data: NewWordTable[uint32](tblWords), owner: NewWordTable[int32](1)}
}

// applyTblOps drives both models through ops and returns an error
// describing the first divergence, or nil if they stay equivalent.
func applyTblOps(ops []tblOp) error {
	s := newSoaLines()
	ref := map[uint64]*refLineState{}

	check := func(step int) error {
		if s.ids.Len() != len(ref) {
			return fmt.Errorf("op %d: %d ids assigned, reference has %d lines", step, s.ids.Len(), len(ref))
		}
		for k, r := range ref {
			id, ok := s.ids.Lookup(k)
			if !ok {
				return fmt.Errorf("op %d: line %#x missing from IDTable", step, k)
			}
			if got := s.ids.Key(id); got != k {
				return fmt.Errorf("op %d: Key(ID(%#x)) = %#x", step, k, got)
			}
			row := s.st.Peek(id)
			drow := s.data.Peek(id)
			for w := 0; w < tblWords; w++ {
				gotSt, gotData := wsInvalid, uint32(0)
				if row != nil {
					gotSt, gotData = row[w], drow[w]
				}
				if gotSt != r.st[w] || gotData != r.data[w] {
					return fmt.Errorf("op %d: line %#x word %d: got st=%d data=%d, want st=%d data=%d",
						step, k, w, gotSt, gotData, r.st[w], r.data[w])
				}
			}
			gotOwner := int32(0)
			if row := s.owner.Peek(id); row != nil {
				gotOwner = row[0]
			}
			if gotOwner != r.owner {
				return fmt.Errorf("op %d: line %#x owner: got %d want %d", step, k, gotOwner, r.owner)
			}
		}
		return nil
	}

	for i, op := range ops {
		switch op.kind {
		case 's':
			id := s.ids.ID(op.line)
			row := s.st.Row(id)
			row[op.word] = op.st
			s.data.Row(id)[op.word] = op.val
			r := ref[op.line]
			if r == nil {
				r = &refLineState{}
				ref[op.line] = r
			}
			r.st[op.word] = op.st
			r.data[op.word] = op.val
		case 'l':
			id, ok := s.ids.Lookup(op.line)
			r, refOk := ref[op.line]
			if ok != refOk {
				return fmt.Errorf("op %d: Lookup(%#x) present=%v, reference %v", i, op.line, ok, refOk)
			}
			if ok {
				row := s.st.Peek(id)
				gotSt := wsInvalid
				if row != nil {
					gotSt = row[op.word]
				}
				if gotSt != r.st[op.word] {
					return fmt.Errorf("op %d: lookup line %#x word %d: got st=%d want %d", i, op.line, op.word, gotSt, r.st[op.word])
				}
			}
		case 't':
			// Steal only affects lines that exist.
			id, ok := s.ids.Lookup(op.line)
			if ok {
				s.owner.Row(id)[0] = int32(op.val % 16)
				row := s.st.Row(id)
				for w := range row {
					if row[w] == wsRegistered {
						row[w] = wsValid
					}
				}
				r := ref[op.line]
				r.owner = int32(op.val % 16)
				for w := range r.st {
					if r.st[w] == wsRegistered {
						r.st[w] = wsValid
					}
				}
			}
		case 'd':
			for id := int32(0); id < int32(s.ids.Len()); id++ {
				row := s.st.Peek(id)
				if row == nil {
					continue
				}
				for w := range row {
					if row[w] == wsValid {
						row[w] = wsInvalid
					}
				}
			}
			for _, r := range ref {
				for w := range r.st {
					if r.st[w] == wsValid {
						r.st[w] = wsInvalid
					}
				}
			}
		}
		if err := check(i); err != nil {
			return err
		}
	}
	return nil
}

// shrinkTblOps greedily removes ops while the sequence still fails,
// yielding a locally minimal reproducer.
func shrinkTblOps(ops []tblOp) []tblOp {
	for removed := true; removed; {
		removed = false
		for i := 0; i < len(ops); i++ {
			trial := make([]tblOp, 0, len(ops)-1)
			trial = append(trial, ops[:i]...)
			trial = append(trial, ops[i+1:]...)
			if applyTblOps(trial) != nil {
				ops = trial
				removed = true
				i--
			}
		}
	}
	return ops
}

func TestWordTablePropertyVsMapReference(t *testing.T) {
	lines := []uint64{0, 0x40, 0x80, 1 << 20, 1<<20 + 0x40, 1 << 44, 0xdeadbeefc0} // includes line 0
	for _, seed := range []int64{1, 7, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		n := 5000
		if testing.Short() {
			n = 800
		}
		ops := make([]tblOp, 0, n)
		for i := 0; i < n; i++ {
			op := tblOp{line: lines[rng.Intn(len(lines))], word: rng.Intn(tblWords)}
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				op.kind, op.st, op.val = 's', uint8(rng.Intn(3)), rng.Uint32()
			case 4, 5, 6:
				op.kind = 'l'
			case 7, 8:
				op.kind, op.val = 't', rng.Uint32()
			default:
				op.kind = 'd'
			}
			ops = append(ops, op)
			if err := applyTblOps(ops); err != nil {
				min := shrinkTblOps(ops)
				t.Fatalf("seed %d diverged: %v\nminimal reproducer (%d ops): %v", seed, err, len(min), min)
			}
			// Re-running the whole prefix each op is quadratic; cap the
			// incremental phase and then run the remainder in one shot.
			if i > 400 {
				rest := n - i - 1
				for j := 0; j < rest; j++ {
					op := tblOp{line: lines[rng.Intn(len(lines))], word: rng.Intn(tblWords)}
					switch rng.Intn(10) {
					case 0, 1, 2, 3:
						op.kind, op.st, op.val = 's', uint8(rng.Intn(3)), rng.Uint32()
					case 4, 5, 6:
						op.kind = 'l'
					case 7, 8:
						op.kind, op.val = 't', rng.Uint32()
					default:
						op.kind = 'd'
					}
					ops = append(ops, op)
				}
				if err := applyTblOps(ops); err != nil {
					min := shrinkTblOps(ops)
					t.Fatalf("seed %d diverged: %v\nminimal reproducer (%d ops): %v", seed, err, len(min), min)
				}
				break
			}
		}
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

// Rows are stored in fixed chunks, so a row handed out early stays the
// live storage for its id however far the table grows afterwards.
func TestWordTableRowsStayLive(t *testing.T) {
	tbl := NewWordTable[uint32](16)
	first := tbl.Row(0)
	for id := int32(1); id < 10*chunkRows; id++ {
		tbl.Row(id)[3] = uint32(id)
	}
	first[5] = 99
	if got := tbl.Peek(0)[5]; got != 99 {
		t.Fatalf("Peek(0)[5] = %d, want 99: row 0 moved when the table grew", got)
	}
	for id := int32(1); id < 10*chunkRows; id++ {
		if got := tbl.Peek(id)[3]; got != uint32(id) {
			t.Fatalf("Peek(%d)[3] = %d, want %d", id, got, id)
		}
	}
	if tbl.Peek(10*chunkRows) != nil {
		t.Fatal("Peek beyond the last chunk should be nil")
	}
}
