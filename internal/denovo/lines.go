package denovo

import (
	"fmt"
	"math/bits"

	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
	"denovogpu/internal/wordmap"
)

// lineState is one line's L1 transaction state. The paper's DeNovo L1
// keeps coherence state per word but moves data and registrations per
// line, so the state is a set of per-word masks under one line key; the
// per-word payloads that some words need live in a pooled lineRec. An
// entry exists only while some mask, the pin count or the read
// transaction id is non-zero.
type lineState struct {
	reg  mem.WordMask // registration in flight
	data mem.WordMask // of reg: a store-buffer slot waits on the registration
	sync mem.WordMask // of reg: sync operations wait in the record
	own  mem.WordMask // owned but frameless: the value is in the record
	lazy mem.WordMask // buffered with its registration delayed to a release (DH)
	fwd  mem.WordMask // a forwarded registration waits in the record
	rd   mem.WordMask // forwarded reads wait in the record
	// vic marks words with a victim-buffer copy awaiting WriteBackAck;
	// of those, vServed have had a forward served from the copy and
	// vRejected have had the writeback rejected by the registry.
	vic, vServed, vRejected mem.WordMask
	// pins counts registering words plus open read transactions: a
	// pinned line's frame must not be evicted.
	pins int32
	// rec is 1 + the index of the line's record in lineTable.recs, 0
	// while no word needs one.
	rec int32
	// read is the id of the line's current read transaction, 0 if none.
	read uint64
}

// needsRec is the mask of words whose payload lives in the record.
func (s *lineState) needsRec() mem.WordMask { return s.sync | s.own | s.fwd | s.rd }

// empty reports whether the entry holds no state and may be deleted.
func (s *lineState) empty() bool {
	return s.reg|s.own|s.lazy|s.fwd|s.rd|s.vic == 0 && s.pins == 0 && s.read == 0 && s.rec == 0
}

// lineRec holds the per-word payloads of one line: the sync operations
// queued on a registration, a deferred forwarded registration, the
// forwarded reads deferred until ownership data arrives, and the value
// of a frameless owned word. Records are pooled; a free record keeps
// its slices' capacity and holds no message.
type lineRec struct {
	sync  [mem.WordsPerLine][]syncOp
	reads [mem.WordsPerLine][]*coherence.Msg
	fwd   [mem.WordsPerLine]*coherence.Msg
	own   [mem.WordsPerLine]uint32
}

// lineTable is the L1's transaction state, keyed by line. A line's
// state costs one probe however many of its words take part, and a
// data-write registration costs a mask bit. All mutation goes through
// the methods below; callers read the masks directly.
//
// Pointer discipline: a *lineState from ptr or upsert stays valid until
// the next upsert of an absent line or the next tidy that deletes an
// entry. Handlers therefore take the pointer after any call that can
// evict a frame (an eviction upserts the victim's line) and tidy once,
// at their end.
type lineTable struct {
	index wordmap.Map[lineState]
	recs  []lineRec
	free  []int32 // recycled record indices

	regWords, ownWords, lazyWords int
}

// ptr returns line l's entry, or nil.
func (t *lineTable) ptr(l mem.Line) *lineState {
	s, _ := t.index.Ptr(uint64(l))
	return s
}

// get returns a copy of line l's entry (zero if absent).
func (t *lineTable) get(l mem.Line) lineState {
	s, _ := t.index.Get(uint64(l))
	return s
}

// upsert returns line l's entry, inserting an empty one if absent.
func (t *lineTable) upsert(l mem.Line) *lineState { return t.index.Upsert(uint64(l)) }

// tidy frees s's record once no word needs it and deletes s, line l's
// entry, once it is empty. s may be nil.
func (t *lineTable) tidy(l mem.Line, s *lineState) {
	if s == nil {
		return
	}
	if s.rec != 0 && s.needsRec() == 0 {
		t.free = append(t.free, s.rec-1)
		s.rec = 0
	}
	if s.empty() {
		t.index.Delete(uint64(l))
	}
}

// record returns s's record, taking one from the pool if s has none.
// The pointer is valid until the next record is taken.
func (t *lineTable) record(s *lineState) *lineRec {
	if s.rec == 0 {
		if n := len(t.free); n > 0 {
			s.rec = t.free[n-1] + 1
			t.free = t.free[:n-1]
		} else {
			t.recs = append(t.recs, lineRec{})
			s.rec = int32(len(t.recs))
		}
	}
	return &t.recs[s.rec-1]
}

// register starts registrations for the words of mask, none of which
// is registering. The words of data (a subset of mask) have a
// store-buffer slot waiting; a delayed word in mask is absorbed, its
// slot now waiting on this registration.
func (t *lineTable) register(s *lineState, mask, data mem.WordMask) {
	absorbed := s.lazy & mask
	s.lazy &^= absorbed
	t.lazyWords -= absorbed.Count()
	s.reg |= mask
	s.data |= data | absorbed
	n := mask.Count()
	s.pins += int32(n)
	t.regWords += n
}

// ride marks registering words of mask as having a store-buffer slot
// waiting on their registration.
func (t *lineTable) ride(s *lineState, mask mem.WordMask) { s.data |= mask }

// delay marks buffered words of mask as delaying their registration to
// the next global release.
func (t *lineTable) delay(s *lineState, mask mem.WordMask) {
	t.lazyWords += (mask &^ s.lazy).Count()
	s.lazy |= mask
}

// addSync queues a sync operation on word i's registration.
func (t *lineTable) addSync(s *lineState, i int, op syncOp) {
	r := t.record(s)
	r.sync[i] = append(r.sync[i], op)
	s.sync |= mem.Bit(i)
}

// syncOps returns the sync operations queued on word i's registration,
// valid until arrive(s, i).
func (t *lineTable) syncOps(s *lineState, i int) []syncOp {
	if !s.sync.Has(i) {
		return nil
	}
	return t.recs[s.rec-1].sync[i]
}

// arrive ends word i's registration, dropping its queued sync
// operations, and returns the line's remaining pins.
func (t *lineTable) arrive(s *lineState, i int) int32 {
	b := mem.Bit(i)
	if s.sync&b != 0 {
		r := &t.recs[s.rec-1]
		clear(r.sync[i])
		r.sync[i] = r.sync[i][:0]
	}
	s.reg &^= b
	s.data &^= b
	s.sync &^= b
	s.pins--
	t.regWords--
	return s.pins
}

// setOwn makes v the value of word i, owned without a frame.
func (t *lineTable) setOwn(s *lineState, i int, v uint32) {
	if !s.own.Has(i) {
		t.ownWords++
		s.own |= mem.Bit(i)
	}
	t.record(s).own[i] = v
}

// ownVal returns the value of frameless owned word i.
func (t *lineTable) ownVal(s *lineState, i int) uint32 { return t.recs[s.rec-1].own[i] }

// ownVals writes the values of the frameless owned words of mask into
// vals.
func (t *lineTable) ownVals(s *lineState, mask mem.WordMask, vals *[mem.WordsPerLine]uint32) {
	r := &t.recs[s.rec-1]
	for m := mask; m != 0; m &= m - 1 {
		i := lowest(m)
		vals[i] = r.own[i]
	}
}

// lowest returns the index of the lowest word of a non-zero mask.
func lowest(m mem.WordMask) int { return bits.TrailingZeros16(uint16(m)) }

// dropOwn ends frameless ownership of word i, returning its value.
func (t *lineTable) dropOwn(s *lineState, i int) uint32 {
	s.own &^= mem.Bit(i)
	t.ownWords--
	return t.recs[s.rec-1].own[i]
}

// deferFwd parks a forwarded registration for registering word i.
func (t *lineTable) deferFwd(s *lineState, i int, m *coherence.Msg) {
	t.record(s).fwd[i] = m
	s.fwd |= mem.Bit(i)
}

// takeFwd removes and returns word i's deferred forward.
func (t *lineTable) takeFwd(s *lineState, i int) *coherence.Msg {
	r := &t.recs[s.rec-1]
	m := r.fwd[i]
	r.fwd[i] = nil
	s.fwd &^= mem.Bit(i)
	return m
}

// deferRead parks a forwarded read for registering word i.
func (t *lineTable) deferRead(s *lineState, i int, m *coherence.Msg) {
	r := t.record(s)
	r.reads[i] = append(r.reads[i], m)
	s.rd |= mem.Bit(i)
}

// deferredReads returns word i's deferred reads in arrival order, valid
// until clearReads(s, i).
func (t *lineTable) deferredReads(s *lineState, i int) []*coherence.Msg {
	if !s.rd.Has(i) {
		return nil
	}
	return t.recs[s.rec-1].reads[i]
}

// clearReads forgets word i's deferred reads.
func (t *lineTable) clearReads(s *lineState, i int) {
	if !s.rd.Has(i) {
		return
	}
	r := &t.recs[s.rec-1]
	clear(r.reads[i])
	r.reads[i] = r.reads[i][:0]
	s.rd &^= mem.Bit(i)
}

// victimPut marks the words of mask as freshly evicted to the victim
// buffer.
func (t *lineTable) victimPut(s *lineState, mask mem.WordMask) {
	s.vic |= mask
	s.vServed &^= mask
	s.vRejected &^= mask
}

// victimServe records that a forward was served from the victim copies
// of mask.
func (t *lineTable) victimServe(s *lineState, mask mem.WordMask) { s.vServed |= mask }

// victimReject records that the registry rejected the writeback of
// mask.
func (t *lineTable) victimReject(s *lineState, mask mem.WordMask) { s.vRejected |= mask }

// victimDrop forgets the victim state of mask.
func (t *lineTable) victimDrop(s *lineState, mask mem.WordMask) {
	s.vic &^= mask
	s.vServed &^= mask
	s.vRejected &^= mask
}

// openRead makes id the line's current read transaction and pins it.
func (t *lineTable) openRead(s *lineState, id uint64) {
	s.read = id
	s.pins++
}

// closeRead unpins read transaction id, which stops being the line's
// current one, and returns the line's remaining pins.
func (t *lineTable) closeRead(s *lineState, id uint64) int32 {
	if s.read == id {
		s.read = 0
	}
	s.pins--
	return s.pins
}

// check validates the table against itself: no entry is empty; masks
// nest as documented (data and sync within reg, vServed and vRejected
// within vic, lazy apart from reg); a record is held exactly while some
// word needs one, by one line, and holds payloads for exactly the words
// whose masks name them; free records are clean and not held, and
// every record is held or free; and the word counts match the masks.
// Pins are checked by Controller.CheckInvariants, which knows the open
// read transactions.
func (t *lineTable) check() error {
	held := make([]bool, len(t.recs))
	var reg, own, lazy int
	var err error
	t.index.ForEach(func(k uint64, s lineState) {
		if err == nil {
			err = t.checkLine(mem.Line(k), &s, held)
			reg += s.reg.Count()
			own += s.own.Count()
			lazy += s.lazy.Count()
		}
	})
	if err != nil {
		return err
	}
	if reg != t.regWords || own != t.ownWords || lazy != t.lazyWords {
		return fmt.Errorf("line-table: masks count %d registering, %d owned frameless and %d delayed words, the table %d, %d and %d", reg, own, lazy, t.regWords, t.ownWords, t.lazyWords)
	}
	nheld := 0
	for _, h := range held {
		if h {
			nheld++
		}
	}
	for _, f := range t.free {
		if f < 0 || int(f) >= len(t.recs) || held[f] {
			return fmt.Errorf("line-table: frees record %d, which is out of range or held", f)
		}
		if r := &t.recs[f]; !r.clean() {
			return fmt.Errorf("line-table: free record %d still holds waiters or messages", f)
		}
	}
	if nheld+len(t.free) != len(t.recs) {
		return fmt.Errorf("line-table: record leak: %d held + %d free != %d pooled", nheld, len(t.free), len(t.recs))
	}
	return nil
}

func (t *lineTable) checkLine(l mem.Line, s *lineState, held []bool) error {
	switch {
	case s.empty():
		return fmt.Errorf("line-table: %v has an empty entry", l)
	case (s.data|s.sync)&^s.reg != 0:
		return fmt.Errorf("line-table: %v marks words %016b as waiting on registrations not in flight (reg %016b)", l, (s.data|s.sync)&^s.reg, s.reg)
	case (s.vServed|s.vRejected)&^s.vic != 0:
		return fmt.Errorf("line-table: %v has victim flags %016b without victim copies (vic %016b)", l, (s.vServed|s.vRejected)&^s.vic, s.vic)
	case s.lazy&s.reg != 0:
		return fmt.Errorf("lazy-reg-exclusive: %v has words %016b both delayed and mid-registration", l, s.lazy&s.reg)
	}
	need := s.needsRec()
	if (s.rec != 0) != (need != 0) {
		return fmt.Errorf("line-table: %v holds record %d for words %016b", l, s.rec, need)
	}
	if s.rec == 0 {
		return nil
	}
	f := s.rec - 1
	if f < 0 || int(f) >= len(t.recs) || held[f] {
		return fmt.Errorf("line-table: %v holds record %d, which is out of range or held twice", l, s.rec)
	}
	held[f] = true
	r := &t.recs[f]
	for i := 0; i < mem.WordsPerLine; i++ {
		if (len(r.sync[i]) != 0) != s.sync.Has(i) || (r.fwd[i] != nil) != s.fwd.Has(i) || (len(r.reads[i]) != 0) != s.rd.Has(i) {
			return fmt.Errorf("line-table: %v word %d: record holds %d sync ops, forward %v and %d reads, masks sync %016b fwd %016b rd %016b",
				l, i, len(r.sync[i]), r.fwd[i] != nil, len(r.reads[i]), s.sync, s.fwd, s.rd)
		}
	}
	return nil
}

// clean reports whether a record holds no waiter and no message.
func (r *lineRec) clean() bool {
	for i := range r.sync {
		if len(r.sync[i]) != 0 || len(r.reads[i]) != 0 || r.fwd[i] != nil {
			return false
		}
	}
	return true
}
