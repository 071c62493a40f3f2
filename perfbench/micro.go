package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"denovogpu"
	"denovogpu/internal/cache"
	"denovogpu/internal/energy"
	"denovogpu/internal/interconnect"
	"denovogpu/internal/mem"
	"denovogpu/internal/noc"
	"denovogpu/internal/resultcache"
	"denovogpu/internal/sim"
	"denovogpu/internal/stats"
	"denovogpu/internal/topology"
	"denovogpu/internal/wordmap"
)

// micro times fn, which attempts n operations and returns how many it
// performed: once to warm up, then three times, returning the median
// nanoseconds and heap allocations per operation.
func micro(n int, fn func(n int) int) (nsPerOp, allocsPerOp float64) {
	fn(max(n/10, 1))
	var ns, allocs []float64
	for r := 0; r < 3; r++ {
		runtime.GC()
		before := readMem()
		t0 := time.Now()
		ops := fn(n)
		elapsed := time.Since(t0)
		d := memSince(before)
		ns = append(ns, float64(elapsed.Nanoseconds())/float64(ops))
		allocs = append(allocs, float64(d.mallocs)/float64(ops))
	}
	return median(ns), median(allocs)
}

// runMicrobenchmarks measures each layer in isolation through its
// public functions and returns the per-layer metrics they feed.
func runMicrobenchmarks() (map[string]float64, error) {
	m := make(map[string]float64)
	m["sim.ns_per_event"], m["sim.allocs_per_event"] = micro(1<<20, engineLoop)
	m["noc.ns_per_packet"], m["noc.allocs_per_packet"] = micro(1<<16, meshSend)
	m["interconnect.ns_per_packet"], m["interconnect.allocs_per_packet"] = micro(1<<14, fabricSend)
	m["cache.sb_ns_per_insert"], m["cache.sb_allocs_per_insert"] = micro(1<<20, storeBufferInserts)
	m["wordmap.ns_per_op"], m["wordmap.allocs_per_op"] = micro(1<<20, wordmapOps)
	m["stats.ns_per_inc"], m["stats.allocs_per_inc"] = micro(1<<22, func(n int) int { return statsIncs(n, false) })
	m["stats.ns_per_inc_view"], m["stats.allocs_per_inc_view"] = micro(1<<22, func(n int) int { return statsIncs(n, true) })
	m["gpu.ns_per_mem_op"], m["gpu.allocs_per_mem_op"] = micro(0, kernelMemOps)
	put, get, err := resultCacheOps()
	if err != nil {
		return nil, err
	}
	m["resultcache.put_us"], m["resultcache.allocs_per_put"] = put[0]/1e3, put[1]
	m["resultcache.get_us"], m["resultcache.allocs_per_get"] = get[0]/1e3, get[1]
	return m, nil
}

// ticker is an engine task that reschedules itself until left runs out.
type ticker struct {
	eng   *sim.Engine
	left  int
	delay sim.Time
}

func (k *ticker) Run() {
	if k.left > 0 {
		k.left--
		k.eng.ScheduleTask(k.delay, k)
	}
}

// engineLoop fires about n events from 64 self-rescheduling tasks at
// delays of 1 to 13 cycles, the near-future traffic the engine's
// calendar ring is built for.
func engineLoop(n int) int {
	eng := sim.NewEngine(0)
	const tasks = 64
	for i := 0; i < tasks; i++ {
		k := &ticker{eng: eng, left: n / tasks, delay: sim.Time(1 + i%13)}
		eng.ScheduleTask(k.delay, k)
	}
	if err := eng.Run(); err != nil {
		panic(err) // no horizon is set, so Run cannot fail
	}
	return int(eng.Fired())
}

type packet struct{ route noc.Route }

func (p *packet) NocRoute() noc.Route { return p.route }

type sink struct{ n int }

func (s *sink) Deliver(noc.Packet) { s.n++ }

// packets builds a fixed mix of header-only and one-line packets from
// nodes in [srcBase, srcBase+Nodes) to nodes in [dstBase, dstBase+Nodes).
func packets(srcBase, dstBase noc.NodeID) []packet {
	pkts := make([]packet, 256)
	for i := range pkts {
		src := srcBase + noc.NodeID(i%noc.Nodes)
		dst := dstBase + noc.NodeID((i*7+3)%noc.Nodes)
		if dst == src {
			dst = dstBase + (dst-dstBase+1)%noc.Nodes
		}
		pkts[i].route = noc.Route{Src: src, Dst: dst, Port: noc.PortL1, Class: stats.TrafficRead, PayloadBytes: 64 * (i % 2)}
	}
	return pkts
}

// meshSend sends n packets over one device's mesh in rounds of 256 and
// delivers them all.
func meshSend(n int) int {
	eng := sim.NewEngine(0)
	st := stats.New()
	mesh := noc.New(eng, st, energy.NewMeter(st))
	s := &sink{}
	for node := noc.NodeID(0); node < noc.Nodes; node++ {
		mesh.Attach(node, noc.PortL1, s)
	}
	pkts := packets(0, 0)
	sendRounds(n, pkts, mesh.Send, eng)
	return s.n
}

// fabricSend sends n packets across the link of a 2-device fabric,
// half in each direction, and delivers them all.
func fabricSend(n int) int {
	eng := sim.NewEngine(0)
	st := stats.New()
	meter := energy.NewMeter(st)
	meshes := []*noc.Mesh{noc.NewAt(eng, st, meter, 0), noc.NewAt(eng, st, meter, noc.Nodes)}
	fab := interconnect.New(eng, st, meter, topology.New(2), meshes)
	s := &sink{}
	for node := noc.NodeID(0); node < 2*noc.Nodes; node++ {
		fab.Attach(node, noc.PortL1, s)
	}
	pkts := append(packets(0, noc.Nodes), packets(noc.Nodes, 0)...)
	sendRounds(n, pkts, fab.Send, eng)
	if uint64(s.n) != fab.Sent() {
		panic(fmt.Sprintf("fabric delivered %d of %d cross-device packets", s.n, fab.Sent()))
	}
	return s.n
}

func sendRounds(n int, pkts []packet, send func(noc.Packet), eng *sim.Engine) {
	for sent := 0; sent < n; sent += len(pkts) {
		for i := range pkts {
			send(&pkts[i])
		}
		if err := eng.Run(); err != nil {
			panic(err) // no horizon is set, so Run cannot fail
		}
	}
}

// storeBufferInserts inserts n word writes cycling over 128 words, so a
// third of them coalesce, and drains the buffer every 192 inserts.
func storeBufferInserts(n int) int {
	sb := cache.NewStoreBuffer(256)
	for i := 0; i < n; i++ {
		sb.Insert(mem.Word(0x4000+(i*37)%128), uint32(i))
		if (i+1)%192 == 0 {
			sb.DrainAll()
		}
	}
	return n
}

// wordmapSink keeps wordmapOps' lookups observable.
var wordmapSink int

// wordmapOps runs n operations, half puts, a quarter gets and a quarter
// deletes, over 4096 scattered keys.
func wordmapOps(n int) int {
	var m wordmap.Map[uint32]
	hits := 0
	for i := 0; i < n; i++ {
		k := uint64(i*2654435761) % 4096
		switch i % 4 {
		case 0, 1:
			m.Put(k, uint32(i))
		case 2:
			if _, ok := m.Get(k); ok {
				hits++
			}
		case 3:
			m.Delete(k)
		}
	}
	wordmapSink = hits
	return n
}

// statsIncs increments one interned counter n times, on the root Stats
// or through a device view of it.
func statsIncs(n int, view bool) int {
	st := stats.New()
	k := stats.Intern("perfbench.micro")
	target := st
	if view {
		target = st.DeviceView(1)
	}
	for i := 0; i < n; i++ {
		target.IncKey(k, 1)
	}
	return n
}

// kernelMemOps runs a streaming load/store kernel through RunKernel and
// returns its memory instructions, so ns/op is the whole machine's host
// cost per CU memory instruction.
func kernelMemOps(int) int {
	const (
		tbs     = 30
		threads = 32
		iters   = 64
	)
	base := denovogpu.Addr(0x10_0000)
	kernel := func(c *denovogpu.Ctx) {
		for it := 0; it < iters; it++ {
			a := base + denovogpu.Addr(4*threads*(c.TB*iters+it))
			v := c.LoadStride(a)
			for i := range v {
				v[i]++
			}
			c.StoreStride(a, v)
		}
	}
	rep, err := denovogpu.RunKernel(denovogpu.DD(), "perfbench-memops", kernel, tbs, threads, nil, nil)
	if err != nil {
		panic(err) // the kernel touches only its own words and cannot fail
	}
	return int(rep.Stats.Get("cu.mem_instrs"))
}

// resultCacheOps times resultcache Put and Get of a report-sized payload
// in a temporary directory, returning {ns, allocs} per operation.
func resultCacheOps() (put, get [2]float64, err error) {
	dir, err := os.MkdirTemp("", "perfbench-rc-")
	if err != nil {
		return put, get, err
	}
	defer os.RemoveAll(dir)
	c, err := resultcache.Open(dir, 0)
	if err != nil {
		return put, get, err
	}
	const keys = 100
	key := func(i int) string {
		sum := sha256.Sum256([]byte(strconv.Itoa(i % keys)))
		return hex.EncodeToString(sum[:])
	}
	payload := bytes.Repeat([]byte("denovogpu report payload "), 128)
	var opErr error
	put[0], put[1] = micro(keys, func(n int) int {
		for i := 0; i < n; i++ {
			if err := c.Put(key(i), payload); err != nil && opErr == nil {
				opErr = fmt.Errorf("resultcache put: %w", err)
			}
		}
		return n
	})
	get[0], get[1] = micro(4*keys, func(n int) int {
		for i := 0; i < n; i++ {
			if _, ok, err := c.Get(key(i)); (err != nil || !ok) && opErr == nil {
				opErr = fmt.Errorf("resultcache get %d: present %v, error %v", i, ok, err)
			}
		}
		return n
	})
	return put, get, opErr
}
