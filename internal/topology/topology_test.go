package topology

import (
	"testing"

	"denovogpu/internal/mem"
	"denovogpu/internal/noc"
)

// TestSingleDeviceIsHistoricalGeometry: the one-device descriptor must
// reproduce the exact formulas the pre-topology code hardcoded —
// line % noc.Nodes home banks, CPU at node 15, identity node mapping.
// The 44 golden reports rest on this.
func TestSingleDeviceIsHistoricalGeometry(t *testing.T) {
	d := Single()
	if d.TotalNodes() != noc.Nodes {
		t.Fatalf("TotalNodes = %d, want %d", d.TotalNodes(), noc.Nodes)
	}
	if gw := d.GatewayNode(0); gw != noc.NodeID(noc.Nodes-1) {
		t.Errorf("gateway at %d, want %d (the historical CPU node)", gw, noc.Nodes-1)
	}
	for _, l := range []mem.Line{0, 1, 15, 16, 17, 31, 1000, 1 << 30} {
		if got, want := d.HomeNode(l), noc.NodeID(uint64(l)%noc.Nodes); got != want {
			t.Errorf("HomeNode(%d) = %d, want historical %d", l, got, want)
		}
		if dev := d.HomeDevice(l); dev != 0 {
			t.Errorf("HomeDevice(%d) = %d on a single device", l, dev)
		}
	}
	for n := noc.NodeID(0); n < noc.NodeID(noc.Nodes); n++ {
		if d.DeviceOf(n) != 0 || d.LocalNode(n) != int(n) || d.Node(0, int(n)) != n {
			t.Errorf("node %d does not map to itself on device 0", n)
		}
	}
}

// TestMultiDeviceNodeRanges: device d owns the contiguous global range
// [d*Nodes, (d+1)*Nodes), and the (device, local) <-> global mappings
// are inverse bijections.
func TestMultiDeviceNodeRanges(t *testing.T) {
	d := New(3)
	if d.TotalNodes() != 3*noc.Nodes {
		t.Fatalf("TotalNodes = %d", d.TotalNodes())
	}
	for dev := 0; dev < 3; dev++ {
		for local := 0; local < noc.Nodes; local++ {
			n := d.Node(dev, local)
			if want := noc.NodeID(dev*noc.Nodes + local); n != want {
				t.Fatalf("Node(%d,%d) = %d, want %d", dev, local, n, want)
			}
			if d.DeviceOf(n) != dev || d.LocalNode(n) != local {
				t.Fatalf("node %d round-trips to (%d,%d), want (%d,%d)",
					n, d.DeviceOf(n), d.LocalNode(n), dev, local)
			}
		}
		if gw := d.GatewayNode(dev); gw != d.Node(dev, GatewayLocal) {
			t.Errorf("gateway of device %d at %d", dev, gw)
		}
	}
	if d.SameDevice(0, noc.NodeID(noc.Nodes-1)) != true {
		t.Error("nodes 0 and 15 are both on device 0")
	}
	if d.SameDevice(0, noc.NodeID(noc.Nodes)) {
		t.Error("nodes 0 and 16 are on different devices")
	}
}

// TestHomeInterleaving: lines interleave across devices at
// noc.Nodes-line granularity, and within a device by the historical
// line % noc.Nodes — so every device's bank slice receives an equal
// share and the local bank index never depends on the device count.
func TestHomeInterleaving(t *testing.T) {
	d := New(2)
	perDevice := [2]int{}
	for l := mem.Line(0); l < 4*noc.Nodes; l++ {
		dev := d.HomeDevice(l)
		if want := int((uint64(l) / noc.Nodes) % 2); dev != want {
			t.Fatalf("HomeDevice(%d) = %d, want %d", l, dev, want)
		}
		perDevice[dev]++
		home := d.HomeNode(l)
		if d.DeviceOf(home) != dev {
			t.Fatalf("HomeNode(%d) = %d not on home device %d", l, home, dev)
		}
		if got, want := d.LocalNode(home), int(uint64(l)%noc.Nodes); got != want {
			t.Fatalf("line %d homes at local bank %d, want %d", l, got, want)
		}
		if got, want := d.BankLine(l), uint64(l)/(2*noc.Nodes); got != want {
			t.Fatalf("BankLine(%d) = %d, want %d", l, got, want)
		}
	}
	if perDevice[0] != perDevice[1] {
		t.Errorf("uneven home split: %v", perDevice)
	}
}

func TestValidate(t *testing.T) {
	if err := New(2).Validate(); err != nil {
		t.Errorf("2-device descriptor rejected: %v", err)
	}
	if err := (Desc{}).Validate(); err == nil {
		t.Error("zero-value descriptor accepted")
	}
	if New(0).Devices != 1 || New(-3).Devices != 1 {
		t.Error("New must clamp device counts below 1 to 1")
	}
}
