package l2

import (
	"testing"
	"unsafe"

	"denovogpu/internal/energy"
	"denovogpu/internal/mem"
	"denovogpu/internal/noc"
	"denovogpu/internal/sim"
	"denovogpu/internal/stats"
	"denovogpu/internal/topology"
)

// TestRegistryRowSize pins the registry's per-line cost: a 48-byte row,
// allocated in 16-row blocks.
func TestRegistryRowSize(t *testing.T) {
	if got := unsafe.Sizeof(row{}); got != 48 {
		t.Errorf("row is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof(block{}); got != 48*blockLines {
		t.Errorf("block is %d bytes, want %d", got, 48*blockLines)
	}
}

// TestRegistryBlocksAndOwners installs lines of one bank of a 3-device
// machine, densely in one block and sparsely across others, registers
// words to nodes on every device, and reads them back through
// PeekOwner, ForEachRegistered and RecallAll.
func TestRegistryBlocksAndOwners(t *testing.T) {
	st := stats.New()
	backing := mem.NewBacking()
	const node = noc.NodeID(37) // device 2, local node 5
	topo := topology.New(3)
	b := New(node, sim.NewEngine(0), nil, backing, st, energy.NewMeter(st))
	b.SetTopology(topo)
	var lines []mem.Line
	for k := uint64(0); k < 40; k++ {
		if k >= blockLines && k%7 != 0 {
			continue // dense first block, sparse after it
		}
		l := mem.Line((k*3+2)*noc.Nodes + 5)
		if topo.HomeNode(l) != node {
			t.Fatalf("line %v homed at %d, want %d", l, topo.HomeNode(l), node)
		}
		lines = append(lines, l)
	}
	for _, l := range lines {
		if b.lookup(l) != nil {
			t.Fatalf("line %v resident before install", l)
		}
		b.install(l)
	}
	if len(b.blocks) != 3 || b.index.Len() != 3 {
		t.Fatalf("%d blocks, %d index entries; want 3 and 3", len(b.blocks), b.index.Len())
	}
	owner := func(i int) noc.NodeID { return noc.NodeID(i * 11 % topo.TotalNodes()) }
	want := map[mem.Word]noc.NodeID{}
	for i, l := range lines {
		w := l.Word(i % mem.WordsPerLine)
		b.row(l).owner[w.Index()] = int16(owner(i))
		want[w] = owner(i)
		backing.Write(w, uint32(i))
	}
	for w, o := range want {
		if got := b.PeekOwner(w); got != o {
			t.Errorf("PeekOwner(%v) = %d, want %d", w, got, o)
		}
	}
	seen := 0
	b.ForEachRegistered(func(w mem.Word, o noc.NodeID) {
		seen++
		if want[w] != o {
			t.Errorf("ForEachRegistered: %v owned by %d, want %d", w, o, want[w])
		}
	})
	if seen != len(want) {
		t.Errorf("ForEachRegistered visited %d words, want %d", seen, len(want))
	}
	if n := b.RecallAll(owner(3), func(w mem.Word) uint32 { return 1000 + uint32(w.Index()) }); n < 1 {
		t.Errorf("RecallAll(%d) recalled %d words", owner(3), n)
	}
	for w, o := range want {
		if o != owner(3) {
			continue
		}
		if b.PeekOwner(w) != MemoryOwner || backing.Read(w) != 1000+uint32(w.Index()) {
			t.Errorf("after RecallAll %v is owned by %d with %d", w, b.PeekOwner(w), backing.Read(w))
		}
	}
}

// TestSetTopologyBoundsNodeIDs: node ids must fit the registry's int16
// owners, so 2,048 devices are the most a bank accepts.
func TestSetTopologyBoundsNodeIDs(t *testing.T) {
	st := stats.New()
	b := New(0, sim.NewEngine(0), nil, mem.NewBacking(), st, energy.NewMeter(st))
	b.SetTopology(topology.New(MaxNodes / noc.Nodes))
	defer func() {
		if recover() == nil {
			t.Error("SetTopology accepted more nodes than the registry holds")
		}
	}()
	b.SetTopology(topology.New(MaxNodes/noc.Nodes + 1))
}
