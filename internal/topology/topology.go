// Package topology describes the machine's device geometry: how many
// devices the system has, which mesh node a global NodeID lives on,
// which device a node belongs to, and where a memory line's home L2
// bank is.
//
// Before this package existed the geometry was implicit: one device,
// sixteen nodes, the CPU pinned at node 15, and `uint64(line) %
// noc.Nodes` sprinkled wherever a home bank was needed. Every one of
// those literals silently assumed a single device, so an N-device
// build could address the wrong home bank without any type-level
// complaint. All geometry questions now route through a Desc.
//
// Node numbering: device d owns the global node range
// [d*noc.Nodes, (d+1)*noc.Nodes). Within a device the local layout is
// unchanged from the single-device machine: local nodes 0..NumCUs-1
// host CUs, and the device's last local node (GatewayLocal) hosts the
// CPU/IO agent — on device 0 that is the CPU core, on every device it
// is also where the inter-device gateway sits.
package topology

import (
	"fmt"

	"denovogpu/internal/mem"
	"denovogpu/internal/noc"
)

// GatewayLocal is the local node index hosting the CPU/IO agent and
// the inter-device gateway on every device (the "node 15" of the
// single-device machine, now spelled once).
const GatewayLocal = noc.Nodes - 1

// Desc describes one machine's device geometry. The zero value is NOT
// valid; use Single() or New(). Desc is a small value type — copy it
// freely and call its methods on the copy (they are pure arithmetic,
// designed to inline on hot paths).
type Desc struct {
	// Devices is the number of GPU devices (>= 1). Each device has its
	// own noc.Nodes-node mesh domain, L1s, and L2 bank slice.
	Devices int
}

// Single is the one-device geometry every pre-multi-device caller
// implicitly assumed; its HomeNode reproduces the historical
// `line % noc.Nodes` interleaving exactly.
func Single() Desc { return Desc{Devices: 1} }

// New returns the geometry for n devices (n < 1 is treated as 1).
func New(n int) Desc {
	if n < 1 {
		n = 1
	}
	return Desc{Devices: n}
}

// TotalNodes is the number of global mesh nodes across all devices.
func (d Desc) TotalNodes() int { return d.Devices * noc.Nodes }

// DeviceOf returns the device owning a global node.
func (d Desc) DeviceOf(n noc.NodeID) int { return int(n) / noc.Nodes }

// LocalNode returns a global node's index within its device mesh.
func (d Desc) LocalNode(n noc.NodeID) int { return int(n) % noc.Nodes }

// Node returns the global node for (device, local).
func (d Desc) Node(dev, local int) noc.NodeID {
	return noc.NodeID(dev*noc.Nodes + local)
}

// GatewayNode returns the global node hosting device dev's
// inter-device gateway (and, on device 0, the CPU core).
func (d Desc) GatewayNode(dev int) noc.NodeID { return d.Node(dev, GatewayLocal) }

// HomeDevice returns the device whose L2 slice is a line's home.
// Lines interleave across devices at noc.Nodes-line granularity, so
// within a device the bank interleaving is the same `line % noc.Nodes`
// the single-device machine used; with one device every line is homed
// on device 0 and the function is the historical formula.
func (d Desc) HomeDevice(l mem.Line) int {
	if d.Devices <= 1 {
		return 0
	}
	return int((uint64(l) / noc.Nodes) % uint64(d.Devices))
}

// BankLine returns a line's index among the lines its home bank homes:
// consecutive lines of one bank have consecutive indices.
func (d Desc) BankLine(l mem.Line) uint64 {
	i := uint64(l) / noc.Nodes
	if d.Devices > 1 {
		i /= uint64(d.Devices)
	}
	return i
}

// HomeNode returns the global node whose L2 bank homes (is the
// registry slice for) the given line.
func (d Desc) HomeNode(l mem.Line) noc.NodeID {
	return noc.NodeID(d.HomeDevice(l)*noc.Nodes + int(uint64(l)%noc.Nodes))
}

// SameDevice reports whether two global nodes share a device (their
// traffic stays on one mesh and never crosses the interconnect).
func (d Desc) SameDevice(a, b noc.NodeID) bool {
	return d.DeviceOf(a) == d.DeviceOf(b)
}

// Validate rejects descriptors no machine can be built from.
func (d Desc) Validate() error {
	if d.Devices < 1 {
		return fmt.Errorf("topology: %d devices (want >= 1)", d.Devices)
	}
	return nil
}
