package interconnect

import (
	"testing"

	"denovogpu/internal/energy"
	"denovogpu/internal/noc"
	"denovogpu/internal/sim"
	"denovogpu/internal/stats"
	"denovogpu/internal/topology"
)

// testPacket is a minimal routable packet with a delivery thunk so
// tests can observe where and when the fabric lands it.
type testPacket struct {
	route noc.Route
}

func (p *testPacket) NocRoute() noc.Route { return p.route }

// sink records deliveries at one (node, port).
type sink struct {
	eng      *sim.Engine
	got      []noc.Packet
	arrivals []sim.Time
}

func (s *sink) Deliver(p noc.Packet) {
	s.got = append(s.got, p)
	s.arrivals = append(s.arrivals, s.eng.Now())
}

// rig builds a d-device fabric with fresh meshes and a sink attached
// at PortL2 of every node.
func rig(t *testing.T, devices int) (*sim.Engine, *stats.Stats, *Fabric, *sink) {
	t.Helper()
	eng := sim.NewEngine(0)
	st := stats.New()
	meter := energy.NewMeter(st)
	topo := topology.New(devices)
	meshes := make([]*noc.Mesh, devices)
	for d := range meshes {
		meshes[d] = noc.NewAt(eng, st, meter, noc.NodeID(d*noc.Nodes))
	}
	f := New(eng, st, meter, topo, meshes)
	s := &sink{eng: eng}
	for d := 0; d < devices; d++ {
		for local := 0; local < noc.Nodes; local++ {
			f.Attach(topo.Node(d, local), noc.PortL2, s)
		}
	}
	return eng, st, f, s
}

// TestLocalSendStaysOffLink: a packet between two nodes of one device
// routes over that device's mesh only — no XDev flits, no link
// occupancy, no cross-device accounting.
func TestLocalSendStaysOffLink(t *testing.T) {
	eng, st, f, s := rig(t, 2)
	p := &testPacket{route: noc.Route{Src: 0, Dst: 5, Port: noc.PortL2, Class: stats.TrafficRead, PayloadBytes: 32}}
	f.Send(p)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.got) != 1 || s.got[0] != p {
		t.Fatalf("delivered %v, want the original packet once", s.got)
	}
	if st.Flits[stats.TrafficXDev] != 0 {
		t.Errorf("device-local send crossed %d XDev flits", st.Flits[stats.TrafficXDev])
	}
	if f.Sent() != 0 {
		t.Errorf("fabric counted %d cross-device packets", f.Sent())
	}
	if got, want := s.arrivals[0], noc.MinLatency(0, 5, 32); got != want {
		t.Errorf("local delivery at %d, want unloaded mesh latency %d", got, want)
	}
}

// TestCrossSendDeliversOriginal: a cross-device packet arrives at the
// destination handler unwrapped — the handler sees the exact packet the
// sender injected, at exactly the fabric's advertised MinLatency, with
// all three stages' flits accounted as XDev.
func TestCrossSendDeliversOriginal(t *testing.T) {
	eng, st, f, s := rig(t, 2)
	src, dst := noc.NodeID(0), noc.NodeID(noc.Nodes+5)
	const payload = 32
	p := &testPacket{route: noc.Route{Src: src, Dst: dst, Port: noc.PortL2, Class: stats.TrafficRead, PayloadBytes: payload}}
	f.Send(p)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.got) != 1 || s.got[0] != p {
		t.Fatalf("delivered %v, want the original packet once", s.got)
	}
	if got, want := s.arrivals[0], f.MinLatency(src, dst, payload); got != want {
		t.Errorf("unloaded crossing arrived at %d, want MinLatency %d", got, want)
	}
	// Mesh flit accounting counts crossings (flits x links traversed);
	// the link itself counts each flit once.
	flits := uint64(noc.Flits(payload))
	gwA, gwB := noc.NodeID(noc.Nodes-1), noc.NodeID(2*noc.Nodes-1)
	wantFlits := flits * uint64(noc.Hops(src, gwA)+1+noc.Hops(gwB, dst))
	if got := st.Flits[stats.TrafficXDev]; got != wantFlits {
		t.Errorf("XDev flits = %d, want %d (source leg + link + destination leg)", got, wantFlits)
	}
	if f.Sent() != 1 {
		t.Errorf("Sent = %d", f.Sent())
	}
	if busy := f.LinkBusy(0, 1); busy != flits*LinkFlitCycles {
		t.Errorf("link 0->1 busy %d flit-cycles, want %d", busy, flits*LinkFlitCycles)
	}
	if busy := f.LinkBusy(1, 0); busy != 0 {
		t.Errorf("reverse link busy %d, want 0 (links are per ordered pair)", busy)
	}
}

// TestMinLatencyDominatesMesh: the link's head latency makes any
// crossing far more expensive than any on-device route — the cliff's
// first-principles cause.
func TestMinLatencyDominatesMesh(t *testing.T) {
	_, _, f, _ := rig(t, 2)
	cross := f.MinLatency(0, noc.NodeID(noc.Nodes), 4)
	worstLocal := noc.MinLatency(0, noc.NodeID(noc.Nodes-1), 4)
	if cross <= worstLocal+LinkLatencyCycles {
		t.Errorf("crossing costs %d, want > worst mesh route %d + link latency %d",
			cross, worstLocal, LinkLatencyCycles)
	}
}

// TestLinkSerialization: back-to-back crossings of one ordered device
// pair serialize — each claims the link for its flit occupancy, so the
// k-th packet arrives LinkFlitCycles*flits later than the (k-1)-th,
// and FIFO order is preserved end to end.
func TestLinkSerialization(t *testing.T) {
	eng, _, f, s := rig(t, 2)
	const n, payload = 4, 32
	packets := make([]*testPacket, n)
	for i := range packets {
		packets[i] = &testPacket{route: noc.Route{
			Src: 0, Dst: noc.NodeID(noc.Nodes + 5), Port: noc.PortL2,
			Class: stats.TrafficRead, PayloadBytes: payload,
		}}
		f.Send(packets[i])
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.got) != n {
		t.Fatalf("delivered %d packets, want %d", len(s.got), n)
	}
	for i, p := range s.got {
		if p != packets[i] {
			t.Fatalf("delivery %d out of order", i)
		}
	}
	occupancy := sim.Time(noc.Flits(payload)) * LinkFlitCycles
	for i := 1; i < n; i++ {
		if gap := s.arrivals[i] - s.arrivals[i-1]; gap != occupancy {
			t.Errorf("arrival gap %d->%d is %d cycles, want serialization occupancy %d",
				i-1, i, gap, occupancy)
		}
	}
	if busy := f.LinkBusy(0, 1); busy != uint64(occupancy)*n {
		t.Errorf("link busy %d, want %d", busy, uint64(occupancy)*n)
	}
}

// TestOppositeDirectionsDontSerialize: the two directions of a device
// pair are independent links (full duplex): simultaneous opposite
// crossings arrive at the same cycle, neither delayed by the other.
func TestOppositeDirectionsDontSerialize(t *testing.T) {
	eng, _, f, s := rig(t, 2)
	const payload = 32
	f.Send(&testPacket{route: noc.Route{Src: 0, Dst: noc.NodeID(noc.Nodes), Port: noc.PortL2, Class: stats.TrafficRead, PayloadBytes: payload}})
	f.Send(&testPacket{route: noc.Route{Src: noc.NodeID(noc.Nodes), Dst: 0, Port: noc.PortL2, Class: stats.TrafficRead, PayloadBytes: payload}})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.got) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(s.got))
	}
	if s.arrivals[0] != s.arrivals[1] {
		t.Errorf("opposite-direction crossings arrived at %d and %d; full-duplex links must not serialize them",
			s.arrivals[0], s.arrivals[1])
	}
}

// TestLegPacketPooling: steady-state crossings recycle leg wrappers
// instead of allocating.
func TestLegPacketPooling(t *testing.T) {
	eng, _, f, _ := rig(t, 2)
	route := noc.Route{Src: 0, Dst: noc.NodeID(noc.Nodes + 3), Port: noc.PortL2, Class: stats.TrafficRead, PayloadBytes: 16}
	f.Send(&testPacket{route: route})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// A leg that has crossed has its fabric pointer set; a fresh one
	// from an empty list does not.
	recycled := f.free.Get()
	if recycled.f != f {
		t.Fatal("free list holds no leg after a completed crossing")
	}
	if extra := f.free.Get(); extra.f != nil {
		t.Fatal("free list holds more than one leg after one crossing")
	}
	f.free.Put(recycled)
	f.Send(&testPacket{route: route})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := f.free.Get(); got != recycled {
		t.Error("second crossing did not reuse the pooled leg wrapper")
	}
	if extra := f.free.Get(); extra.f != nil {
		t.Error("free list holds more than one leg after two crossings")
	}
}

// TestMismatchedMeshesPanic: construction fail-closes on wiring bugs —
// wrong mesh count or a mesh based at the wrong global offset.
func TestMismatchedMeshesPanic(t *testing.T) {
	eng := sim.NewEngine(0)
	st := stats.New()
	meter := energy.NewMeter(st)
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("mesh count mismatch", func() {
		New(eng, st, meter, topology.New(2), []*noc.Mesh{noc.New(eng, st, meter)})
	})
	expectPanic("mesh base mismatch", func() {
		New(eng, st, meter, topology.New(2), []*noc.Mesh{
			noc.New(eng, st, meter),
			noc.NewAt(eng, st, meter, noc.NodeID(5)),
		})
	})
}
