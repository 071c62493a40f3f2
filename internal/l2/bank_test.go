package l2_test

import (
	"testing"

	"denovogpu/internal/coherence"
	"denovogpu/internal/energy"
	"denovogpu/internal/l2"
	"denovogpu/internal/mem"
	"denovogpu/internal/noc"
	"denovogpu/internal/sim"
	"denovogpu/internal/stats"
)

// harness attaches a message collector as the L1 of every node.
type collector struct {
	got []*coherence.Msg
}

func (c *collector) Deliver(p noc.Packet) { c.got = append(c.got, p.(*coherence.Msg)) }

type rig struct {
	eng     *sim.Engine
	mesh    *noc.Mesh
	backing *mem.Backing
	banks   [noc.Nodes]*l2.Bank
	l1s     [noc.Nodes]*collector
	st      *stats.Stats
}

func newRig() *rig {
	r := &rig{eng: sim.NewEngine(1_000_000), backing: mem.NewBacking(), st: stats.New()}
	meter := energy.NewMeter(r.st)
	r.mesh = noc.New(r.eng, r.st, meter)
	for n := noc.NodeID(0); n < noc.Nodes; n++ {
		r.banks[n] = l2.New(n, r.eng, r.mesh, r.backing, r.st, meter)
		r.mesh.Attach(n, noc.PortL2, r.banks[n])
		r.l1s[n] = &collector{}
		r.mesh.Attach(n, noc.PortL1, r.l1s[n])
	}
	return r
}

func (r *rig) send(m *coherence.Msg) { r.mesh.Send(m) }

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHomeNodeInterleaving(t *testing.T) {
	if l2.HomeNode(mem.Line(0)) != 0 || l2.HomeNode(mem.Line(17)) != 1 || l2.HomeNode(mem.Line(31)) != 15 {
		t.Fatal("line interleaving wrong")
	}
}

func TestReadReqReturnsDRAMData(t *testing.T) {
	r := newRig()
	l := mem.Line(3) // homed at node 3
	r.backing.Write(l.Word(5), 99)
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.ReadReq, Src: 0, Dst: 3, Port: noc.PortL2, Line: l, Mask: mem.AllWords, ID: 7})
	})
	r.run(t)
	got := r.l1s[0].got
	if len(got) != 1 || got[0].Kind != coherence.ReadResp {
		t.Fatalf("got %v", got)
	}
	if got[0].Data[5] != 99 || got[0].Mask != mem.AllWords || got[0].ID != 7 {
		t.Fatalf("bad response %+v", got[0])
	}
	if r.st.Get("l2.dram_fetches") != 1 {
		t.Fatal("cold line must fetch from DRAM")
	}
}

func TestConcurrentFetchesCoalesce(t *testing.T) {
	r := newRig()
	l := mem.Line(3)
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.ReadReq, Src: 0, Dst: 3, Port: noc.PortL2, Line: l, Mask: mem.AllWords})
		r.send(&coherence.Msg{Kind: coherence.ReadReq, Src: 1, Dst: 3, Port: noc.PortL2, Line: l, Mask: mem.AllWords})
	})
	r.run(t)
	if r.st.Get("l2.dram_fetches") != 1 {
		t.Fatalf("fetches = %d, want 1 (coalesced)", r.st.Get("l2.dram_fetches"))
	}
	if len(r.l1s[0].got) != 1 || len(r.l1s[1].got) != 1 {
		t.Fatal("both requesters must be answered")
	}
}

func TestWriteThroughUpdatesAndAcks(t *testing.T) {
	r := newRig()
	l := mem.Line(4)
	var data [mem.WordsPerLine]uint32
	data[2] = 42
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.WriteThrough, Src: 5, Dst: 4, Port: noc.PortL2, Line: l, Mask: mem.Bit(2), Data: data})
	})
	r.run(t)
	if r.banks[4].PeekData(l.Word(2)) != 42 {
		t.Fatal("writethrough not applied")
	}
	if len(r.l1s[5].got) != 1 || r.l1s[5].got[0].Kind != coherence.WriteThroughAck {
		t.Fatal("no ack")
	}
}

func TestRegistrationGrantAndForward(t *testing.T) {
	r := newRig()
	l := mem.Line(6)
	r.backing.Write(l.Word(0), 5)
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.RegReq, Src: 2, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(0), NeedsData: true, Sync: true})
	})
	r.run(t)
	if r.banks[6].PeekOwner(l.Word(0)) != 2 {
		t.Fatal("ownership not granted")
	}
	ack := r.l1s[2].got[0]
	if ack.Kind != coherence.RegAck || ack.Data[0] != 5 || !ack.Sync {
		t.Fatalf("bad ack %+v", ack)
	}
	// Second requester: forward to node 2, ownership moves to node 9.
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.RegReq, Src: 9, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(0), Sync: true})
	})
	r.run(t)
	if r.banks[6].PeekOwner(l.Word(0)) != 9 {
		t.Fatal("registry must reassign owner immediately (DeNovoSync0 arrival order)")
	}
	fwd := r.l1s[2].got[1]
	if fwd.Kind != coherence.RegFwd || fwd.Requester != 9 {
		t.Fatalf("bad forward %+v", fwd)
	}
	if len(r.l1s[9].got) != 0 {
		t.Fatal("second requester must wait for the previous owner, not the bank")
	}
}

func TestWriteBackAcceptAndReject(t *testing.T) {
	r := newRig()
	l := mem.Line(6)
	// Node 2 registers word 0.
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.RegReq, Src: 2, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(0)})
	})
	r.run(t)
	// Accepted writeback: owner matches.
	var data [mem.WordsPerLine]uint32
	data[0] = 77
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.WriteBack, Src: 2, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(0), Data: data})
	})
	r.run(t)
	ack := r.l1s[2].got[len(r.l1s[2].got)-1]
	if ack.Kind != coherence.WriteBackAck || !ack.WBAccepted.Has(0) {
		t.Fatalf("accepted writeback got %+v", ack)
	}
	if r.banks[6].PeekOwner(l.Word(0)) != l2.MemoryOwner || r.banks[6].PeekData(l.Word(0)) != 77 {
		t.Fatal("writeback should return ownership and data to the bank")
	}
	// Stale writeback: node 2 no longer owns (node 3 does).
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.RegReq, Src: 3, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(0)})
	})
	r.run(t)
	data[0] = 1234
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.WriteBack, Src: 2, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(0), Data: data})
	})
	r.run(t)
	ack = r.l1s[2].got[len(r.l1s[2].got)-1]
	if ack.Kind != coherence.WriteBackAck || ack.WBAccepted.Has(0) {
		t.Fatalf("stale writeback must be rejected, got %+v", ack)
	}
	if r.banks[6].PeekData(l.Word(0)) == 1234 {
		t.Fatal("stale writeback data must be dropped")
	}
	if r.st.Get("l2.stale_writebacks") != 1 {
		t.Fatal("stale writeback not counted")
	}
}

func TestAtomicRMWAtBank(t *testing.T) {
	r := newRig()
	l := mem.Line(8)
	r.backing.Write(l.Word(1), 10)
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.AtomicReq, Src: 0, Dst: 8, Port: noc.PortL2,
			Line: l, WordIdx: 1, Op: coherence.AtomicAdd, Operand: 5, ID: 3})
	})
	r.run(t)
	resp := r.l1s[0].got[0]
	if resp.Kind != coherence.AtomicResp || resp.Result != 10 || resp.ID != 3 {
		t.Fatalf("bad atomic response %+v", resp)
	}
	if r.banks[8].PeekData(l.Word(1)) != 15 {
		t.Fatal("atomic not applied at bank")
	}
}

func TestBankSerializesAtomics(t *testing.T) {
	r := newRig()
	l := mem.Line(8)
	r.eng.Schedule(0, func() {
		for i := 0; i < 4; i++ {
			r.send(&coherence.Msg{Kind: coherence.AtomicReq, Src: 0, Dst: 8, Port: noc.PortL2,
				Line: l, WordIdx: 0, Op: coherence.AtomicAdd, Operand: 1, ID: uint64(i)})
		}
	})
	r.run(t)
	if r.banks[8].PeekData(l.Word(0)) != 4 {
		t.Fatalf("value %d, want 4 (atomicity at the bank)", r.banks[8].PeekData(l.Word(0)))
	}
	// Responses spread in time due to bank occupancy.
	if len(r.l1s[0].got) != 4 {
		t.Fatal("all atomics must respond")
	}
}

func TestReadForwardForRegisteredWords(t *testing.T) {
	r := newRig()
	l := mem.Line(6)
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.RegReq, Src: 4, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(3)})
	})
	r.run(t)
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.ReadReq, Src: 7, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(3) | mem.Bit(4), ID: 11})
	})
	r.run(t)
	// Node 7 gets the bank's words (all but word 3); node 4 gets a
	// forward for word 3 only.
	var gotResp, gotFwd bool
	for _, m := range r.l1s[7].got {
		if m.Kind == coherence.ReadResp && !m.Mask.Has(3) && m.Mask.Has(4) {
			gotResp = true
		}
	}
	for _, m := range r.l1s[4].got {
		if m.Kind == coherence.ReadFwd && m.Mask == mem.Bit(3) && m.Requester == 7 && m.ID == 11 {
			gotFwd = true
		}
	}
	if !gotResp || !gotFwd {
		t.Fatalf("resp=%v fwd=%v", gotResp, gotFwd)
	}
}

func TestRecallHelpers(t *testing.T) {
	r := newRig()
	l := mem.Line(6)
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.RegReq, Src: 4, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(0)})
	})
	r.run(t)
	r.banks[6].Recall(l.Word(0), 55)
	if r.banks[6].PeekOwner(l.Word(0)) != l2.MemoryOwner || r.banks[6].PeekData(l.Word(0)) != 55 {
		t.Fatal("recall failed")
	}
	// RecallAll on a fresh registration.
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.RegReq, Src: 4, Dst: 6, Port: noc.PortL2, Line: l, Mask: mem.Bit(1)})
	})
	r.run(t)
	n := r.banks[6].RecallAll(4, func(mem.Word) uint32 { return 9 })
	if n != 1 || r.banks[6].PeekData(l.Word(1)) != 9 {
		t.Fatalf("recallAll n=%d", n)
	}
}

// The backing image is the bank's data array: a resident line's atomic
// and writethrough are visible in the image, and the host helpers write
// the image directly, resident line or cold.
func TestResidentLineLivesInImage(t *testing.T) {
	r := newRig()
	l := mem.Line(8)
	bank := r.banks[8]
	r.backing.Write(l.Word(1), 10)
	var data [mem.WordsPerLine]uint32
	data[2] = 42
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.AtomicReq, Src: 0, Dst: 8, Port: noc.PortL2,
			Line: l, WordIdx: 1, Op: coherence.AtomicAdd, Operand: 5})
		r.send(&coherence.Msg{Kind: coherence.WriteThrough, Src: 0, Dst: 8, Port: noc.PortL2,
			Line: l, Mask: mem.Bit(2), Data: data})
	})
	r.run(t)
	for _, c := range []struct {
		w    mem.Word
		want uint32
	}{{l.Word(1), 15}, {l.Word(2), 42}} {
		if got := bank.PeekData(c.w); got != c.want {
			t.Fatalf("PeekData(%v) = %d, want %d", c.w, got, c.want)
		}
		if got := r.backing.Read(c.w); got != c.want {
			t.Fatalf("image %v = %d, want %d", c.w, got, c.want)
		}
	}

	bank.PokeData(l.Word(3), 33)
	cold := mem.Line(24).Word(0) // homed at bank 8, never fetched
	bank.PokeData(cold, 7)
	r.eng.Schedule(0, func() {
		r.send(&coherence.Msg{Kind: coherence.RegReq, Src: 4, Dst: 8, Port: noc.PortL2, Line: l, Mask: mem.Bit(4) | mem.Bit(5)})
	})
	r.run(t)
	bank.Recall(l.Word(4), 44)
	if n := bank.RecallAll(4, func(mem.Word) uint32 { return 55 }); n != 1 {
		t.Fatalf("RecallAll recalled %d words, want 1", n)
	}
	for w, want := range map[mem.Word]uint32{l.Word(3): 33, cold: 7, l.Word(4): 44, l.Word(5): 55} {
		if got := r.backing.Read(w); got != want {
			t.Fatalf("image %v = %d, want %d", w, got, want)
		}
	}
}
