package denovo

import (
	"math/rand"
	"testing"

	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
)

// refLines is the word-keyed reference model of lineTable: the builtin
// maps the controller kept before its state was keyed by line, one per
// kind of state, word-keyed except for the line's pins and current
// read transaction. lineTable must match it operation for operation.
type refLines struct {
	regs    map[mem.Word]*refTxn
	own     map[mem.Word]uint32
	fwd     map[mem.Word]*coherence.Msg
	reads   map[mem.Word][]*coherence.Msg
	lazy    map[mem.Word]bool
	victim  map[mem.Word]refVictim
	pins    map[mem.Line]int32
	lineTxn map[mem.Line]uint64
}

// refTxn is one word's registration in flight.
type refTxn struct {
	dataWrite bool
	sync      []syncOp
}

type refVictim struct{ served, rejected bool }

func newRefLines() *refLines {
	return &refLines{
		regs: map[mem.Word]*refTxn{}, own: map[mem.Word]uint32{},
		fwd: map[mem.Word]*coherence.Msg{}, reads: map[mem.Word][]*coherence.Msg{},
		lazy: map[mem.Word]bool{}, victim: map[mem.Word]refVictim{},
		pins: map[mem.Line]int32{}, lineTxn: map[mem.Line]uint64{},
	}
}

func (r *refLines) unpin(l mem.Line) {
	if r.pins[l]--; r.pins[l] == 0 {
		delete(r.pins, l)
	}
}

// hasLine reports whether the model holds any state for line l.
func (r *refLines) hasLine(l mem.Line) bool {
	if r.pins[l] != 0 || r.lineTxn[l] != 0 {
		return true
	}
	for i := 0; i < mem.WordsPerLine; i++ {
		w := l.Word(i)
		_, own := r.own[w]
		_, vic := r.victim[w]
		if r.regs[w] != nil || own || r.fwd[w] != nil || len(r.reads[w]) != 0 || r.lazy[w] || vic {
			return true
		}
	}
	return false
}

// linePair applies one operation stream to a lineTable and its
// reference model. Each operation is the table transition a controller
// handler makes, taken only where its precondition holds (as in the
// controller: a word registers only when no registration is in
// flight), and is followed by the handler's tidy.
type linePair struct {
	t      *testing.T
	tab    lineTable
	ref    *refLines
	nextID uint64
	open   map[mem.Line][]uint64 // open read transactions per line
	nextOp uint32                // unique sync operands, to compare queues
}

func newLinePair(t *testing.T) *linePair {
	return &linePair{t: t, ref: newRefLines(), open: map[mem.Line][]uint64{}}
}

// regMask returns the words of l the model has registering.
func (d *linePair) regMask(l mem.Line) mem.WordMask {
	var m mem.WordMask
	for i := 0; i < mem.WordsPerLine; i++ {
		if d.ref.regs[l.Word(i)] != nil {
			m |= mem.Bit(i)
		}
	}
	return m
}

// step applies operation op (taken modulo the operation count) to word
// i of line l, with mask and pick as operands.
func (d *linePair) step(op byte, l mem.Line, i int, mask mem.WordMask, pick int) {
	t, ref := d.t, d.ref
	w, b := l.Word(i), mem.Bit(i)
	reg := d.regMask(l)
	s := d.tab.upsert(l)
	switch op % 14 {
	case 0: // register
		mask &^= reg
		data := mask & mem.WordMask(pick)
		d.tab.register(s, mask, data)
		for j := 0; j < mem.WordsPerLine; j++ {
			if mask.Has(j) {
				wj := l.Word(j)
				ref.regs[wj] = &refTxn{dataWrite: data.Has(j) || ref.lazy[wj]}
				delete(ref.lazy, wj)
				ref.pins[l]++
			}
		}
	case 1: // ride
		mask &= reg
		d.tab.ride(s, mask)
		for j := 0; j < mem.WordsPerLine; j++ {
			if mask.Has(j) {
				ref.regs[l.Word(j)].dataWrite = true
			}
		}
	case 2: // delay
		mask &^= reg
		d.tab.delay(s, mask)
		for j := 0; j < mem.WordsPerLine; j++ {
			if mask.Has(j) {
				ref.lazy[l.Word(j)] = true
			}
		}
	case 3: // queue a sync operation
		if reg&b != 0 {
			d.nextOp++
			op := syncOp{op: coherence.AtomicAdd, operand: d.nextOp}
			d.tab.addSync(s, i, op)
			ref.regs[w].sync = append(ref.regs[w].sync, op)
		}
	case 4: // ownership arrives
		if reg&b == 0 {
			break
		}
		if got, want := d.tab.syncOps(s, i), ref.regs[w].sync; !sameSyncOps(got, want) {
			t.Fatalf("syncOps(%v) = %v, want %v", w, got, want)
		}
		delete(ref.regs, w)
		ref.unpin(l)
		if got := d.tab.arrive(s, i); got != ref.pins[l] {
			t.Fatalf("arrive(%v) left %d pins, want %d", w, got, ref.pins[l])
		}
	case 5: // frameless ownership
		v := uint32(pick)
		d.tab.setOwn(s, i, v)
		ref.own[w] = v
	case 6: // install or transfer a frameless word
		if v, ok := ref.own[w]; ok {
			if got := d.tab.dropOwn(s, i); got != v {
				t.Fatalf("dropOwn(%v) = %d, want %d", w, got, v)
			}
			delete(ref.own, w)
		}
	case 7: // defer a forwarded registration
		if reg&b != 0 && ref.fwd[w] == nil {
			m := &coherence.Msg{ID: uint64(pick)}
			d.tab.deferFwd(s, i, m)
			ref.fwd[w] = m
		}
	case 8: // service the deferred forward
		if m := ref.fwd[w]; m != nil {
			if got := d.tab.takeFwd(s, i); got != m {
				t.Fatalf("takeFwd(%v) = %p, want %p", w, got, m)
			}
			delete(ref.fwd, w)
		}
	case 9: // defer a forwarded read
		if reg&b != 0 {
			m := &coherence.Msg{ID: uint64(pick)}
			d.tab.deferRead(s, i, m)
			ref.reads[w] = append(ref.reads[w], m)
		}
	case 10: // serve the deferred reads
		got, want := d.tab.deferredReads(s, i), ref.reads[w]
		if len(got) != len(want) {
			t.Fatalf("deferredReads(%v) has %d messages, want %d", w, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("deferredReads(%v)[%d] = %p, want %p", w, k, got[k], want[k])
			}
		}
		d.tab.clearReads(s, i)
		delete(ref.reads, w)
	case 11: // evict to the victim buffer
		d.tab.victimPut(s, mask)
		for j := 0; j < mem.WordsPerLine; j++ {
			if mask.Has(j) {
				ref.victim[l.Word(j)] = refVictim{}
			}
		}
	case 12: // victim progress: serve a forward, reject, or resolve
		var live mem.WordMask
		for j := 0; j < mem.WordsPerLine; j++ {
			if _, ok := ref.victim[l.Word(j)]; ok {
				live |= mem.Bit(j)
			}
		}
		mask &= live
		for j := 0; j < mem.WordsPerLine; j++ {
			if !mask.Has(j) {
				continue
			}
			v := ref.victim[l.Word(j)]
			switch pick % 3 {
			case 0:
				v.served = true
				ref.victim[l.Word(j)] = v
			case 1:
				v.rejected = true
				ref.victim[l.Word(j)] = v
			default:
				delete(ref.victim, l.Word(j))
			}
		}
		switch pick % 3 {
		case 0:
			d.tab.victimServe(s, mask)
		case 1:
			d.tab.victimReject(s, mask)
		default:
			d.tab.victimDrop(s, mask)
		}
	case 13: // open a read transaction, or complete one
		if ids := d.open[l]; pick%2 == 0 && len(ids) > 0 {
			k := pick / 2 % len(ids)
			id := ids[k]
			d.open[l] = append(ids[:k], ids[k+1:]...)
			if ref.lineTxn[l] == id {
				delete(ref.lineTxn, l)
			}
			ref.unpin(l)
			if got := d.tab.closeRead(s, id); got != ref.pins[l] {
				t.Fatalf("closeRead(%v, %d) left %d pins, want %d", l, id, got, ref.pins[l])
			}
		} else {
			d.nextID++
			d.open[l] = append(d.open[l], d.nextID)
			d.tab.openRead(s, d.nextID)
			ref.lineTxn[l] = d.nextID
			ref.pins[l]++
		}
	}
	d.tab.tidy(l, s)
}

func sameSyncOps(a, b []syncOp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].op != b[i].op || a[i].operand != b[i].operand {
			return false
		}
	}
	return true
}

// compare requires the table to be structurally valid and to agree with
// the model on every word and line of lines and on the word counts.
func (d *linePair) compare(lines []mem.Line) {
	t, ref := d.t, d.ref
	t.Helper()
	if err := d.tab.check(); err != nil {
		t.Fatal(err)
	}
	if d.tab.regWords != len(ref.regs) || d.tab.ownWords != len(ref.own) || d.tab.lazyWords != len(ref.lazy) {
		t.Fatalf("table counts %d registering, %d frameless, %d delayed; want %d, %d, %d",
			d.tab.regWords, d.tab.ownWords, d.tab.lazyWords, len(ref.regs), len(ref.own), len(ref.lazy))
	}
	for _, l := range lines {
		s := d.tab.ptr(l)
		if (s != nil) != ref.hasLine(l) {
			t.Fatalf("table has an entry for %v: %v; the model holds state for it: %v", l, s != nil, ref.hasLine(l))
		}
		st := d.tab.get(l)
		s = &st
		if st.pins != ref.pins[l] || st.read != ref.lineTxn[l] {
			t.Fatalf("%v: pins %d read %d, want %d and %d", l, st.pins, st.read, ref.pins[l], ref.lineTxn[l])
		}
		for i := 0; i < mem.WordsPerLine; i++ {
			w := l.Word(i)
			txn := ref.regs[w]
			if st.reg.Has(i) != (txn != nil) || st.data.Has(i) != (txn != nil && txn.dataWrite) {
				t.Fatalf("%v: registering %v data %v, want %v and %v", w, st.reg.Has(i), st.data.Has(i), txn != nil, txn != nil && txn.dataWrite)
			}
			if txn != nil && !sameSyncOps(d.tab.syncOps(s, i), txn.sync) {
				t.Fatalf("%v: sync ops %v, want %v", w, d.tab.syncOps(s, i), txn.sync)
			}
			v, own := ref.own[w]
			if st.own.Has(i) != own || own && d.tab.ownVal(s, i) != v {
				t.Fatalf("%v: frameless %v, want %v (value %d)", w, st.own.Has(i), own, v)
			}
			if m := ref.fwd[w]; st.fwd.Has(i) != (m != nil) || m != nil && d.tab.recs[st.rec-1].fwd[i] != m {
				t.Fatalf("%v: deferred forward %v, want %v", w, st.fwd.Has(i), m != nil)
			}
			if st.rd.Has(i) != (len(ref.reads[w]) != 0) || len(d.tab.deferredReads(s, i)) != len(ref.reads[w]) {
				t.Fatalf("%v: %d deferred reads, want %d", w, len(d.tab.deferredReads(s, i)), len(ref.reads[w]))
			}
			if st.lazy.Has(i) != ref.lazy[w] {
				t.Fatalf("%v: delayed %v, want %v", w, st.lazy.Has(i), ref.lazy[w])
			}
			vs, vic := ref.victim[w]
			if st.vic.Has(i) != vic || st.vServed.Has(i) != vs.served || st.vRejected.Has(i) != vs.rejected {
				t.Fatalf("%v: victim %v served %v rejected %v, want %v %v %v", w, st.vic.Has(i), st.vServed.Has(i), st.vRejected.Has(i), vic, vs.served, vs.rejected)
			}
		}
	}
}

// TestLineTableMatchesReference drives the line table and the
// word-keyed reference model through long random operation streams
// over enough lines to grow the table and shift entries on deletion,
// requiring every word's state, every line's pins and read transaction,
// and the counts to agree after each operation.
func TestLineTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261020))
	lines := make([]mem.Line, 24)
	for i := range lines {
		lines[i] = mem.Line(i*i*37 + i)
	}
	for trial := 0; trial < 30; trial++ {
		d := newLinePair(t)
		nl := 1 + rng.Intn(len(lines))
		for op := 0; op < 600; op++ {
			d.step(byte(rng.Intn(256)), lines[rng.Intn(nl)], rng.Intn(mem.WordsPerLine),
				mem.WordMask(rng.Uint32())&mem.WordMask(rng.Uint32()), rng.Intn(1<<16))
			d.compare(lines[:nl])
		}
	}
}

// FuzzDeNovoLineTable decodes its input into a stream of line-table
// transitions over sixteen lines — registrations, sync queues, arrivals,
// frameless ownership, deferred forwards and reads, delayed slots,
// victim progress and read transactions — runs it against the
// word-keyed reference model, and compares the two and checks the
// table's structure after every operation. `go test` runs the seed
// corpus; `go test -fuzz=FuzzDeNovoLineTable ./internal/denovo`
// explores further.
func FuzzDeNovoLineTable(f *testing.F) {
	f.Add([]byte{0, 0x03, 0xff, 0x0f, 1, 3, 0x03, 0, 0, 2, 4, 0x03, 0, 0, 0})
	f.Add([]byte{13, 0x10, 0, 0, 4, 0, 0x12, 0x04, 0, 7, 7, 0x12, 0, 0, 9, 9, 0x12, 0, 0, 3, 4, 0x12, 0, 0, 0, 13, 0x10, 0, 0, 8})
	f.Add([]byte{11, 0x25, 0xff, 0xff, 0, 12, 0x25, 0x0f, 0, 1, 12, 0x25, 0xff, 0xff, 2, 5, 0x31, 0, 0, 42, 6, 0x31, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		lines := make([]mem.Line, 16)
		for i := range lines {
			lines[i] = mem.Line(i * 1009)
		}
		next := func(i *int) byte {
			if *i >= len(data) {
				return 0
			}
			*i++
			return data[*i-1]
		}
		d := newLinePair(t)
		for i := 0; i < len(data); {
			op, at := next(&i), next(&i)
			mask := mem.WordMask(next(&i)) | mem.WordMask(next(&i))<<8
			pick := int(next(&i))
			d.step(op, lines[at>>4], int(at%16), mask, pick)
			d.compare(lines)
		}
	})
}
