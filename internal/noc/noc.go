// Package noc models the on-chip interconnect: a 4x4 mesh with XY
// dimension-order routing, per-link serialization, and flit-crossing
// accounting by message class — the quantity the paper's traffic
// figures report (it uses Garnet; we reproduce the same measurement).
//
// Timing model per message: the head flit pays an injection latency,
// then HopCycles per link; each link transmits one flit per cycle, so a
// message of F flits occupies each link on its path for F cycles and
// contends with other messages for that link; the tail arrives F-1
// cycles after the head, plus an ejection latency. This captures both
// the distance-dependent latency that produces the paper's Table 3
// latency ranges and the bursty-writethrough contention that its
// qualitative analysis (Table 2, "no bursty traffic") relies on.
package noc

import (
	"fmt"

	"denovogpu/internal/energy"
	"denovogpu/internal/obs"
	"denovogpu/internal/sim"
	"denovogpu/internal/stats"
)

// NodeID identifies a mesh node globally: device d owns nodes
// [d*Nodes, (d+1)*Nodes). Within a device, local nodes 0..14 are GPU
// CUs and local node 15 is the CPU/IO agent (the CPU core on device 0,
// the inter-device gateway on every device); every node also hosts one
// L2 bank. A single-device machine therefore keeps the historical
// numbering 0..15 exactly. The topology package maps between global
// and (device, local) forms.
type NodeID int

// Mesh geometry.
const (
	Width  = 4
	Height = 4
	Nodes  = Width * Height
)

// Timing parameters (cycles), chosen so achieved latencies land in the
// paper's Table 3 ranges (L2 hit 29-61, remote L1 35-83, memory
// 197-261); cmd/sweep -table3 validates this.
const (
	HopCycles    = 3 // per-link head latency (router + channel)
	InjectCycles = 2 // network interface injection
	EjectCycles  = 2 // network interface ejection
	FlitBytes    = 16
	HeaderBytes  = 8
)

// Port distinguishes the two endpoints co-located at each node.
type Port int

const (
	PortL1 Port = iota
	PortL2
	// PortGW is the inter-device gateway endpoint, present only on each
	// device's gateway node (topology.GatewayLocal). Cross-device
	// packets ride the local mesh to this port wrapped in an
	// interconnect leg, hop the inter-device link, and ride the remote
	// mesh from the remote gateway to their destination.
	PortGW
	numPorts
)

// Route is everything the mesh needs to carry a packet: addressing,
// traffic class, and payload size (which determines the flit count).
type Route struct {
	Src, Dst NodeID
	Port     Port
	Class    stats.TrafficClass
	// PayloadBytes is the data carried beyond the header.
	PayloadBytes int
}

// Packet is a routable message. The concrete message types live in the
// coherence package; the mesh needs only the Route. A single method
// returning a value struct keeps Send to one dynamic dispatch per
// packet — the earlier five-method interface cost five.
type Packet interface {
	NocRoute() Route
}

// Flits returns the number of flits needed for a payload of n bytes.
func Flits(n int) int {
	f := (HeaderBytes + n + FlitBytes - 1) / FlitBytes
	if f < 1 {
		f = 1
	}
	return f
}

// Handler receives delivered packets.
type Handler interface {
	Deliver(p Packet)
}

// Sender is the send side of an interconnect. Controllers hold a
// Sender rather than a concrete *Mesh so a multi-device machine can
// hand them the interconnect fabric (which routes device-local packets
// straight to the local mesh and cross-device packets over the
// inter-device link) without any protocol-level change.
type Sender interface {
	Send(p Packet)
}

// Network is what a controller needs from the interconnect at
// construction time: a Sender it can also attach its receive side to.
// Both *Mesh and the interconnect fabric implement it.
type Network interface {
	Sender
	Attach(n NodeID, p Port, h Handler)
}

// Mesh is the interconnect for one device. A machine with D devices
// builds D meshes at bases 0, Nodes, 2*Nodes, ...; every mesh speaks
// global NodeIDs at its API (Attach, Send routes, LinkBusy) and maps
// them to its local node range internally, so protocol code is
// oblivious to which device's mesh it is talking to.
type Mesh struct {
	eng   *sim.Engine
	st    *stats.Stats
	meter *energy.Meter
	// base is the first global NodeID this mesh owns; it serves nodes
	// [base, base+Nodes). Zero for the single-device machine.
	base     NodeID
	handlers [Nodes][numPorts]Handler
	// linkFree[from][dir] is the first cycle the link is available.
	// Directions: 0=east 1=west 2=north 3=south.
	linkFree [Nodes][4]sim.Time
	// pairLast[src][dst] is the last delivery time between a pair,
	// enforcing point-to-point FIFO. Routed messages already deliver in
	// order (one XY path, per-link serialization), but same-node
	// messages have no links, so a short message could otherwise
	// overtake an earlier multi-flit one — which the coherence
	// protocols' writeback races must never see.
	pairLast [Nodes][Nodes]sim.Time
	sent     uint64

	// rec, when non-nil, receives one NoCFlitHop span per link claim
	// (track = LinkIndex, duration = the flit serialization window).
	rec *obs.Recorder
	// linkBusy[from][dir] counts cumulative flit-cycles each link has
	// been claimed for; the obs sampler differentiates it into per-link
	// utilization. Plain counter adds, so keeping it unconditionally is
	// free by the observability cost contract.
	linkBusy [Nodes][4]uint64

	// taskFree recycles delivery task payloads so steady-state Sends
	// schedule without allocating (the per-packet delivery closure was
	// ~10% of all simulation allocations).
	taskFree sim.FreeList[deliverTask]
}

// deliverTask is the pooled payload of a delivery event.
type deliverTask struct {
	m *Mesh
	h Handler
	p Packet
}

// Run delivers the packet. The task frees itself before invoking the
// handler, so a Send issued from inside Deliver can reuse it.
func (t *deliverTask) Run() {
	m, h, p := t.m, t.h, t.p
	t.h, t.p = nil, nil
	m.taskFree.Put(t)
	h.Deliver(p)
}

// Link direction indices within linkFree/linkBusy.
var dirNames = [4]string{"east", "west", "north", "south"}

// LinkIndex flattens a (node, direction) pair into the obs track id used
// for NoCFlitHop events and link utilization columns.
func LinkIndex(n NodeID, dir int) int { return int(n)*4 + dir }

// LinkName returns a stable human-readable label for a link ("n03.east").
func LinkName(n NodeID, dir int) string {
	return fmt.Sprintf("n%02d.%s", int(n), dirNames[dir])
}

// New returns a mesh wired to the engine and measurement sinks,
// serving global nodes [0, Nodes) — the single-device geometry.
func New(eng *sim.Engine, st *stats.Stats, meter *energy.Meter) *Mesh {
	return &Mesh{eng: eng, st: st, meter: meter}
}

// NewAt returns a mesh serving the global node range
// [base, base+Nodes). base must be a multiple of Nodes.
func NewAt(eng *sim.Engine, st *stats.Stats, meter *energy.Meter, base NodeID) *Mesh {
	if int(base)%Nodes != 0 {
		panic(fmt.Sprintf("noc: mesh base %d is not a multiple of %d", base, Nodes))
	}
	return &Mesh{eng: eng, st: st, meter: meter, base: base}
}

// Base returns the first global NodeID this mesh owns.
func (m *Mesh) Base() NodeID { return m.base }

// local maps a global NodeID into this mesh's node range, panicking on
// a node it does not own (a routing bug, not a runtime condition).
func (m *Mesh) local(n NodeID) NodeID {
	l := n - m.base
	if l < 0 || l >= Nodes {
		panic(fmt.Sprintf("noc: node %d is outside mesh [%d,%d)", n, m.base, m.base+Nodes))
	}
	return l
}

// Attach registers the handler for a (global) node's port.
func (m *Mesh) Attach(n NodeID, p Port, h Handler) {
	m.handlers[m.local(n)][p] = h
}

// HandlerAt returns the handler attached at a (global) node's port,
// nil if none. The interconnect fabric uses it to hand a cross-device
// packet's final delivery to the same endpoint a local send would hit.
func (m *Mesh) HandlerAt(n NodeID, p Port) Handler {
	return m.handlers[m.local(n)][p]
}

// SetRecorder installs an obs recorder (nil to disable) and names every
// link track so Perfetto shows one lane per mesh link.
func (m *Mesh) SetRecorder(rec *obs.Recorder) {
	m.rec = rec
	for n := NodeID(0); n < Nodes; n++ {
		for dir := 0; dir < 4; dir++ {
			g := m.base + n
			rec.NameTrack(obs.DomainNoC, int32(LinkIndex(g, dir)), LinkName(g, dir))
		}
	}
}

// LinkBusy returns the cumulative flit-cycles link (n, dir) has been
// claimed for (monotone; sample and differentiate for utilization).
// n is a global NodeID owned by this mesh.
func (m *Mesh) LinkBusy(n NodeID, dir int) uint64 { return m.linkBusy[m.local(n)][dir] }

// Sent returns the number of packets sent, a determinism diagnostic.
func (m *Mesh) Sent() uint64 { return m.sent }

func xy(n NodeID) (x, y int) { return int(n) % Width, int(n) / Width }

// Hops returns the XY-route hop count between two nodes. The nodes
// must share a device mesh; because mesh bases are multiples of Nodes
// (and Nodes is a multiple of Width), same-device global NodeIDs give
// the same answer as their local counterparts.
func Hops(a, b NodeID) int {
	ax, ay := xy(a)
	bx, by := xy(b)
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Send routes p through the mesh and delivers it to the destination
// handler. Statistics (flit crossings by class) and NoC energy are
// recorded per link traversed. Send panics if no handler is attached at
// the destination: that is a wiring bug, not a runtime condition.
func (m *Mesh) Send(p Packet) {
	r := p.NocRoute()
	src, dst := m.local(r.Src), m.local(r.Dst)
	h := m.handlers[dst][r.Port]
	if h == nil {
		panic(fmt.Sprintf("noc: no handler attached at node %d port %d", r.Dst, r.Port))
	}
	m.sent++
	flits := Flits(r.PayloadBytes)

	crossings := uint64(flits) * uint64(Hops(src, dst))
	if crossings > 0 {
		m.st.AddFlits(r.Class, crossings)
		m.meter.FlitHops(crossings)
	}

	// Walk the XY route in place (X dimension fully resolved, then Y),
	// claiming each link as the head flit reaches it; this is the
	// materialized path an earlier version allocated per Send.
	t := m.eng.Now() + InjectCycles
	cx, cy := xy(src)
	bx, by := xy(dst)
	for cx != bx || cy != by {
		var dir, nx, ny int
		switch {
		case cx < bx:
			dir, nx, ny = 0, cx+1, cy // east
		case cx > bx:
			dir, nx, ny = 1, cx-1, cy // west
		case cy < by:
			dir, nx, ny = 3, cx, cy+1 // south (increasing y)
		default:
			dir, nx, ny = 2, cx, cy-1 // north
		}
		node := NodeID(cy*Width + cx)
		free := m.linkFree[node][dir]
		if free > t {
			t = free
		}
		m.linkFree[node][dir] = t + sim.Time(flits)
		m.linkBusy[node][dir] += uint64(flits)
		if m.rec != nil {
			m.rec.EmitAt(obs.NoCFlitHop, int32(LinkIndex(m.base+node, dir)), uint64(flits), uint64(t), uint64(flits))
		}
		t += HopCycles
		cx, cy = nx, ny
	}
	t += sim.Time(flits-1) + EjectCycles
	if last := m.pairLast[src][dst]; t < last {
		t = last // same-cycle deliveries keep send order (event FIFO)
	}
	m.pairLast[src][dst] = t
	task := m.taskFree.Get()
	task.m, task.h, task.p = m, h, p
	m.eng.AtTask(t, task)
}

// MinLatency returns the unloaded head-to-tail latency for a payload of
// n bytes between two nodes (used by tests and the Table 3 validation).
func MinLatency(a, b NodeID, payloadBytes int) sim.Time {
	return sim.Time(InjectCycles + Hops(a, b)*HopCycles + Flits(payloadBytes) - 1 + EjectCycles)
}
