// Package interconnect models the inter-device link joining the
// per-device mesh domains of a multi-device machine, in the style of
// internal/noc links: a bandwidth-limited, serialized channel with a
// fixed head latency, plus the mesh "legs" that carry a crossing
// packet to and from each device's gateway node.
//
// A cross-device packet's journey has three stages:
//
//  1. source leg: ride the source device's mesh from the sender to the
//     device gateway (topology.GatewayLocal), as an ordinary mesh
//     packet addressed to noc.PortGW;
//  2. link: serialize over the inter-device link for the ordered
//     device pair (one link per direction, like a full-duplex cable),
//     paying LinkLatencyCycles of head latency plus LinkFlitCycles per
//     flit of occupancy;
//  3. destination leg: ride the destination device's mesh from its
//     gateway to the final node, where the fabric unwraps the leg and
//     delivers the original packet to the same handler a device-local
//     send would have hit.
//
// Every flit of all three stages is accounted under
// stats.TrafficXDev, so the traffic split directly exposes how much of
// a workload's communication left its device — the quantity behind the
// device-local vs cross-device sync cost cliff in EXPERIMENTS.md.
package interconnect

import (
	"fmt"

	"denovogpu/internal/energy"
	"denovogpu/internal/noc"
	"denovogpu/internal/sim"
	"denovogpu/internal/stats"
	"denovogpu/internal/topology"
)

// Link timing parameters (cycles). The inter-device link is modeled as
// an NVLink/PCIe-class serial channel: its head latency dwarfs a mesh
// hop (hundreds of cycles of SerDes, retimers and protocol layers
// against HopCycles=3) and its per-flit occupancy is a few GPU cycles
// per 16-byte flit (tens of GB/s against the mesh's one flit per cycle
// per link).
const (
	// LinkLatencyCycles is the head-flit latency across the link.
	LinkLatencyCycles = 180
	// LinkFlitCycles is the serialization occupancy per flit: each flit
	// holds the link this many cycles, so the link's bandwidth is
	// 1/LinkFlitCycles of a mesh link's.
	LinkFlitCycles = 4
)

// legStage marks where in its three-stage journey a crossing packet is.
type legStage int

const (
	stageToGateway legStage = iota
	stageFromGateway
)

// legPacket wraps a cross-device packet for one mesh leg. It is both
// the noc.Packet the mesh routes (with the leg's own route, classed
// TrafficXDev) and the sim.Task that fires when the link transit
// completes. Pooled: steady-state crossings do not allocate.
type legPacket struct {
	f     *Fabric
	inner noc.Packet
	// final is the original route (true source, destination, port).
	final noc.Route
	// cur is the route of the mesh leg currently in flight.
	cur   noc.Route
	stage legStage
}

func (l *legPacket) NocRoute() noc.Route { return l.cur }

// Run fires when the link transit completes: launch the destination
// leg on the remote device's mesh.
func (l *legPacket) Run() {
	l.stage = stageFromGateway
	dstDev := l.f.topo.DeviceOf(l.final.Dst)
	l.cur = noc.Route{
		Src:          l.f.topo.GatewayNode(dstDev),
		Dst:          l.final.Dst,
		Port:         noc.PortGW,
		Class:        stats.TrafficXDev,
		PayloadBytes: l.final.PayloadBytes,
	}
	l.f.meshes[dstDev].Send(l)
}

// Fabric is the machine-wide send fabric: a noc.Sender that routes
// device-local packets straight to the owning mesh and carries
// cross-device packets over the inter-device link. Controllers hold it
// as their noc.Sender and stay oblivious to topology.
type Fabric struct {
	eng    *sim.Engine
	st     *stats.Stats
	meter  *energy.Meter
	topo   topology.Desc
	meshes []*noc.Mesh

	// linkFree[src][dst] is the first cycle the (src→dst) device link
	// is available; one independent link per ordered pair.
	linkFree [][]sim.Time
	// linkBusy[src][dst] counts cumulative flit-cycles each link has
	// been claimed for (monotone; sample and differentiate for
	// utilization, like noc.Mesh.LinkBusy).
	linkBusy [][]uint64
	sent     uint64
	crossed  uint64

	free sim.FreeList[legPacket]
}

// New returns a fabric joining the given per-device meshes. meshes[d]
// must be the mesh based at d*noc.Nodes. The fabric attaches itself at
// noc.PortGW of every node of every mesh, so it must be constructed
// before handlers expect gateway deliveries and needs no further
// wiring.
func New(eng *sim.Engine, st *stats.Stats, meter *energy.Meter, topo topology.Desc, meshes []*noc.Mesh) *Fabric {
	if len(meshes) != topo.Devices {
		panic(fmt.Sprintf("interconnect: %d meshes for %d devices", len(meshes), topo.Devices))
	}
	f := &Fabric{eng: eng, st: st, meter: meter, topo: topo, meshes: meshes}
	f.linkFree = make([][]sim.Time, topo.Devices)
	f.linkBusy = make([][]uint64, topo.Devices)
	for d := range f.linkFree {
		f.linkFree[d] = make([]sim.Time, topo.Devices)
		f.linkBusy[d] = make([]uint64, topo.Devices)
		if meshes[d].Base() != noc.NodeID(d*noc.Nodes) {
			panic(fmt.Sprintf("interconnect: mesh %d based at %d (want %d)", d, meshes[d].Base(), d*noc.Nodes))
		}
		for local := 0; local < noc.Nodes; local++ {
			meshes[d].Attach(topo.Node(d, local), noc.PortGW, f)
		}
	}
	return f
}

// Attach registers a handler on the mesh owning the (global) node, so
// the fabric satisfies noc.Network and controllers can be constructed
// against it exactly as against a single mesh.
func (f *Fabric) Attach(n noc.NodeID, p noc.Port, h noc.Handler) {
	f.meshes[f.topo.DeviceOf(n)].Attach(n, p, h)
}

// Send routes p: on-device packets go straight to the owning mesh;
// cross-device packets start their source leg toward the gateway.
func (f *Fabric) Send(p noc.Packet) {
	r := p.NocRoute()
	srcDev := f.topo.DeviceOf(r.Src)
	if f.topo.DeviceOf(r.Dst) == srcDev {
		f.meshes[srcDev].Send(p)
		return
	}
	f.sent++
	l := f.free.Get()
	l.f, l.inner, l.final, l.stage = f, p, r, stageToGateway
	l.cur = noc.Route{
		Src:          r.Src,
		Dst:          f.topo.GatewayNode(srcDev),
		Port:         noc.PortGW,
		Class:        stats.TrafficXDev,
		PayloadBytes: r.PayloadBytes,
	}
	f.meshes[srcDev].Send(l)
}

// Deliver receives mesh deliveries addressed to noc.PortGW: a leg that
// reached the source gateway starts its link transit; a leg that
// reached its final node unwraps and delivers the original packet.
func (f *Fabric) Deliver(p noc.Packet) {
	l, ok := p.(*legPacket)
	if !ok {
		panic(fmt.Sprintf("interconnect: non-leg packet %T delivered to gateway port", p))
	}
	switch l.stage {
	case stageToGateway:
		f.transit(l)
	case stageFromGateway:
		dst, port := l.final.Dst, l.final.Port
		inner := l.inner
		l.inner, l.cur, l.final = nil, noc.Route{}, noc.Route{}
		f.free.Put(l)
		h := f.meshes[f.topo.DeviceOf(dst)].HandlerAt(dst, port)
		if h == nil {
			panic(fmt.Sprintf("interconnect: no handler attached at node %d port %d", dst, port))
		}
		h.Deliver(inner)
	}
}

// transit serializes the leg over the inter-device link and schedules
// its arrival at the remote gateway. Like a mesh link, the channel
// transmits back-to-back packets without gaps, so departures (and with
// a fixed head latency, arrivals) are FIFO per ordered device pair.
func (f *Fabric) transit(l *legPacket) {
	s, d := f.topo.DeviceOf(l.final.Src), f.topo.DeviceOf(l.final.Dst)
	flits := uint64(noc.Flits(l.final.PayloadBytes))
	occupancy := sim.Time(flits) * LinkFlitCycles

	f.crossed++
	f.st.AddFlits(stats.TrafficXDev, flits)
	f.meter.XDevFlits(flits)

	depart := f.eng.Now()
	if free := f.linkFree[s][d]; free > depart {
		depart = free
	}
	f.linkFree[s][d] = depart + occupancy
	f.linkBusy[s][d] += uint64(occupancy)
	f.eng.AtTask(depart+occupancy+LinkLatencyCycles, l)
}

// Sent returns the number of cross-device packets injected, a
// determinism diagnostic in the style of noc.Mesh.Sent.
func (f *Fabric) Sent() uint64 { return f.sent }

// LinkBusy returns cumulative flit-cycles the (src→dst) device link
// has been claimed for.
func (f *Fabric) LinkBusy(src, dst int) uint64 { return f.linkBusy[src][dst] }

// MinLatency returns the unloaded end-to-end latency for a payload of
// n bytes between two nodes on different devices: both mesh legs plus
// the link transit.
func (f *Fabric) MinLatency(a, b noc.NodeID, payloadBytes int) sim.Time {
	gwA := f.topo.GatewayNode(f.topo.DeviceOf(a))
	gwB := f.topo.GatewayNode(f.topo.DeviceOf(b))
	link := sim.Time(noc.Flits(payloadBytes))*LinkFlitCycles + LinkLatencyCycles
	return noc.MinLatency(a, gwA, payloadBytes) + link + noc.MinLatency(gwB, b, payloadBytes)
}
