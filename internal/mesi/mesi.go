// Package mesi implements a conventional hardware coherence protocol —
// writer-initiated invalidations, a directory, line-granularity MESI
// states — the first row of the paper's Table 1.
//
// The paper deliberately does not evaluate MESI ("prior research has
// observed that they incur significant complexity ... and are a poor
// fit for conventional GPU applications"), citing DeNovo's earlier CPU
// comparisons instead. This package exists to make that classification
// row executable: an extension configuration (machine.MESI) runs every
// benchmark under it, and BenchmarkExtensionMESI quantifies the poor
// fit — invalidation/ack traffic, line ping-pong, and write-for-
// ownership stalls on streaming kernels.
//
// Structure mirrors the other protocols: an L1 controller and a
// directory (one slice per L2 bank). As with DeNovo, every state
// mutation is synchronous at message-processing time and only
// completions are delayed; transient states are represented as MSHR
// entries rather than extra stable states.
package mesi

import (
	"fmt"

	"denovogpu/internal/coherence"
	"denovogpu/internal/energy"
	"denovogpu/internal/mem"
	"denovogpu/internal/noc"
	"denovogpu/internal/sim"
	"denovogpu/internal/stats"
)

// Interned counter keys: hot-path counting indexes an array
// instead of hashing the name per event (see stats.Intern).
var (
	kL2DramFetches     = stats.Intern("l2.dram_fetches")
	kMesiDirFwdGetm    = stats.Intern("mesi.dir_fwd_getm")
	kMesiDirFwdGets    = stats.Intern("mesi.dir_fwd_gets")
	kMesiInvalidations = stats.Intern("mesi.invalidations")
)

// Message kinds, carried in coherence.Msg.Op? No — MESI gets its own
// kind space on top of coherence.Msg via the Kind field values below.
// They continue the coherence.MsgKind enumeration.
const (
	// GetS requests a line for reading.
	GetS coherence.MsgKind = 100 + iota
	// GetM requests a line for writing (ownership + invalidations).
	GetM
	// DataS carries line data granting Shared state.
	DataS
	// DataM carries line data granting Modified state; Operand holds
	// the number of invalidation acks the requester must collect.
	DataM
	// Inv tells a sharer to invalidate; the ack goes to the requester.
	Inv
	// InvAck acknowledges an invalidation to the new owner.
	InvAck
	// FwdGetS asks the current owner to send data to a reader and
	// downgrade to Shared (with a writeback copy to the directory).
	FwdGetS
	// FwdGetM asks the current owner to send data to a new owner and
	// invalidate.
	FwdGetM
	// PutM writes a modified line back on eviction.
	PutM
	// PutAck acknowledges a writeback.
	PutAck
)

// classOf maps MESI kinds onto the paper's traffic classes: data
// movement counts as reads, ownership/invalidation control as
// registration-like traffic, writebacks as WB/WT.
func classOf(k coherence.MsgKind) stats.TrafficClass {
	switch k {
	case GetS, DataS, FwdGetS:
		return stats.TrafficRead
	case GetM, DataM, Inv, InvAck, FwdGetM:
		return stats.TrafficRegistration
	case PutM, PutAck:
		return stats.TrafficWBWT
	default:
		return stats.TrafficRead
	}
}

// msg builds a MESI message; payload sizing: Data* and PutM carry the
// full 64-byte line, everything else is control.
func msg(kind coherence.MsgKind, src, dst noc.NodeID, port noc.Port, l mem.Line) *coherence.Msg {
	return &coherence.Msg{Kind: kind, Src: src, Dst: dst, Port: port, Line: l}
}

// PayloadBytesFor reports the payload of a MESI message kind.
func PayloadBytesFor(k coherence.MsgKind) int {
	switch k {
	case DataS, DataM, PutM:
		return mem.LineBytes
	default:
		return 0
	}
}

// mesiPacket wraps coherence.Msg to override class and payload for the
// MESI kind space.
type mesiPacket struct{ *coherence.Msg }

func (p mesiPacket) NocRoute() noc.Route {
	return noc.Route{Src: p.Src, Dst: p.Dst, Port: p.Port, Class: classOf(p.Kind), PayloadBytes: PayloadBytesFor(p.Kind)}
}

// dirState is the directory's view of one line. The line's data lives in
// the backing image, which the directory reads and writes in place.
type dirState struct {
	sharers map[noc.NodeID]bool
	owner   noc.NodeID // valid when modified
	mod     bool
	// copybackPending blocks the line while a downgrading owner's data
	// is in flight (a GetM processed meanwhile would otherwise grant
	// the directory's stale copy).
	copybackPending bool
	blocked         []*coherence.Msg
}

// Directory is one bank's slice of the MESI directory plus backing data.
type Directory struct {
	Node noc.NodeID

	eng     *sim.Engine
	mesh    *noc.Mesh
	backing *mem.Backing
	st      *stats.Stats
	meter   *energy.Meter

	lines    map[mem.Line]*dirState
	fetching map[mem.Line][]func()
	busy     sim.Time
	dramBusy sim.Time
}

// NewDirectory returns the directory slice for a node.
func NewDirectory(node noc.NodeID, eng *sim.Engine, mesh *noc.Mesh, backing *mem.Backing, st *stats.Stats, meter *energy.Meter) *Directory {
	return &Directory{
		Node: node, eng: eng, mesh: mesh, backing: backing, st: st, meter: meter,
		lines:    make(map[mem.Line]*dirState),
		fetching: make(map[mem.Line][]func()),
	}
}

// HomeNode returns the directory node for a line (same interleaving as
// the L2 banks).
func HomeNode(l mem.Line) noc.NodeID { return noc.NodeID(uint64(l) % noc.Nodes) }

func (d *Directory) send(m *coherence.Msg) { d.mesh.Send(mesiPacket{m}) }

// Deliver implements noc.Handler.
func (d *Directory) Deliver(p noc.Packet) {
	var m *coherence.Msg
	switch pk := p.(type) {
	case mesiPacket:
		m = pk.Msg
	case *coherence.Msg:
		m = pk
	default:
		panic(fmt.Sprintf("mesi: unexpected packet %T", p))
	}
	start := d.eng.Now()
	if d.busy > start {
		start = d.busy
	}
	d.busy = start + coherence.L2OccupancyCycles
	d.meter.L2Access(1)
	at := start + coherence.L2AccessCycles
	d.withLine(m.Line, at, func() { d.process(m) })
}

func (d *Directory) withLine(l mem.Line, at sim.Time, fn func()) {
	if _, ok := d.lines[l]; ok {
		d.eng.At(at, fn)
		return
	}
	if w, in := d.fetching[l]; in {
		d.fetching[l] = append(w, fn)
		return
	}
	d.fetching[l] = []func(){fn}
	d.st.IncKey(kL2DramFetches, 1)
	d.meter.DRAMAccess(1)
	start := at
	if d.dramBusy > start {
		start = d.dramBusy
	}
	d.dramBusy = start + coherence.DRAMOccupancyCycles
	d.eng.At(start+coherence.DRAMCycles, func() {
		d.lines[l] = &dirState{sharers: make(map[noc.NodeID]bool)}
		ws := d.fetching[l]
		delete(d.fetching, l)
		for _, w := range ws {
			w()
		}
	})
}

func (d *Directory) process(m *coherence.Msg) {
	s := d.lines[m.Line]
	if s.copybackPending && m.Kind != PutM {
		s.blocked = append(s.blocked, m)
		return
	}
	switch m.Kind {
	case GetS:
		if s.mod {
			// Owner forwards data to the reader and back to us.
			d.st.IncKey(kMesiDirFwdGets, 1)
			f := msg(FwdGetS, d.Node, s.owner, noc.PortL1, m.Line)
			f.Requester = m.Src
			d.send(f)
			// The owner downgrades: directory now counts both as sharers;
			// the PutM-like copyback updates our data when it arrives.
			s.sharers[s.owner] = true
			s.sharers[m.Src] = true
			s.mod = false
			s.copybackPending = true
			return
		}
		s.sharers[m.Src] = true
		resp := msg(DataS, d.Node, m.Src, noc.PortL1, m.Line)
		resp.Data = d.backing.ReadLine(m.Line)
		d.send(resp)
	case GetM:
		acks := 0
		if s.mod {
			d.st.IncKey(kMesiDirFwdGetm, 1)
			f := msg(FwdGetM, d.Node, s.owner, noc.PortL1, m.Line)
			f.Requester = m.Src
			d.send(f)
			s.owner = m.Src
			return
		}
		// Invalidate sharers (other than the requester).
		for sh := noc.NodeID(0); sh < noc.Nodes; sh++ {
			if !s.sharers[sh] || sh == m.Src {
				continue
			}
			acks++
			inv := msg(Inv, d.Node, sh, noc.PortL1, m.Line)
			inv.Requester = m.Src
			d.send(inv)
			d.st.IncKey(kMesiInvalidations, 1)
		}
		s.sharers = make(map[noc.NodeID]bool)
		s.mod = true
		s.owner = m.Src
		resp := msg(DataM, d.Node, m.Src, noc.PortL1, m.Line)
		resp.Data = d.backing.ReadLine(m.Line)
		resp.Operand = uint32(acks)
		d.send(resp)
	case PutM:
		switch {
		case s.copybackPending && s.sharers[m.Src]:
			// Downgrade copyback from a FwdGetS: accept the data and
			// unblock the line.
			d.backing.WriteLine(m.Line, m.Data, mem.AllWords)
			s.copybackPending = false
			blocked := s.blocked
			s.blocked = nil
			for _, bm := range blocked {
				d.process(bm)
			}
		case s.mod && s.owner == m.Src:
			d.backing.WriteLine(m.Line, m.Data, mem.AllWords)
			s.mod = false
			s.sharers = make(map[noc.NodeID]bool)
		}
		// Stale PutM from a since-replaced owner is dropped silently.
		d.send(msg(PutAck, d.Node, m.Src, noc.PortL1, m.Line))
	default:
		panic(fmt.Sprintf("mesi: directory got %d", int(m.Kind)))
	}
}

// Host helpers (untimed), mirroring the l2.Bank API.

// PeekOwner returns the modified-line owner or -1.
func (d *Directory) PeekOwner(l mem.Line) noc.NodeID {
	if s, ok := d.lines[l]; ok && s.mod {
		return s.owner
	}
	return -1
}

// ForEachModified calls fn for every line the directory records as
// Modified, with its owner. Used by the protocol sanitizer
// (machine.CheckInvariants) to verify directory/L1 owner agreement at
// quiesce points; iteration order is unspecified.
func (d *Directory) ForEachModified(fn func(l mem.Line, owner noc.NodeID)) {
	for l, s := range d.lines {
		if s.mod {
			fn(l, s.owner)
		}
	}
}

// PeekData returns the directory's copy of a word.
func (d *Directory) PeekData(w mem.Word) uint32 { return d.backing.Read(w) }

// Recall functionally returns a line to the directory with up-to-date
// data (host access between kernels).
func (d *Directory) Recall(l mem.Line, data [mem.WordsPerLine]uint32) {
	s, ok := d.lines[l]
	if !ok {
		s = &dirState{sharers: make(map[noc.NodeID]bool)}
		d.lines[l] = s
	}
	d.backing.WriteLine(l, data, mem.AllWords)
	s.mod = false
	s.sharers = make(map[noc.NodeID]bool)
}

// PokeWord sets one word (host write); the line must not be modified.
func (d *Directory) PokeWord(w mem.Word, v uint32) {
	if s, ok := d.lines[w.LineOf()]; ok && s.mod {
		panic("mesi: host write to modified line without recall")
	}
	d.backing.Write(w, v)
}

// Sharers lists current sharers (for host invalidation on writes).
func (d *Directory) Sharers(l mem.Line) []noc.NodeID {
	var out []noc.NodeID
	if s, ok := d.lines[l]; ok {
		for n := noc.NodeID(0); n < noc.Nodes; n++ {
			if s.sharers[n] {
				out = append(out, n)
			}
		}
	}
	return out
}
