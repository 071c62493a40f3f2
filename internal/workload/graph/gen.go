// Package graph implements the irregular graph-analytics workload
// family (beyond the paper; Salvador et al., arXiv 2002.10245): push
// and pull BFS, PageRank, and SSSP over a seeded synthetic power-law
// graph, written against the per-kernel-phase specialization API
// (Host.LaunchPhase + machine.Config.Phases).
//
// Push kernels scatter updates through relaxed atomics — the access
// pattern that wants writethrough coherence with L2-side atomics. Pull
// kernels stream reads and write data they reuse across kernels — the
// pattern that wants DeNovo ownership. Every workload's Verify is a
// pure-Go sequential reference over the same graph, so a protocol bug
// in the new phase machinery shows up as a wrong answer, not just as
// implausible traffic numbers.
package graph

import (
	"math/bits"
	"sort"
)

// Params describes one synthetic power-law graph.
type Params struct {
	// N is the vertex count (multiple of 32, the thread-block width).
	N int
	// AvgDeg is the target mean out-degree.
	AvgDeg int
	// Seed selects the graph; the same seed always yields the same
	// graph, byte for byte.
	Seed uint64
}

// Graph is a directed graph in CSR (out-edges) and CSC (in-edges)
// form. Edge weights (for SSSP) align with OutDst/InSrc.
type Graph struct {
	P      Params
	OutOff []int32 // len N+1
	OutDst []int32
	OutW   []uint32 // 1..8
	InOff  []int32  // len N+1
	InSrc  []int32
	InW    []uint32
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.OutDst) }

// splitmix64 steps the generator state and returns the next value.
// Sequential and integer-only, so generation is identical on every
// platform and at any GOMAXPROCS.
func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// cubeScale returns floor(n * (r/2^64)^3) using only integer
// multiplies. Cubing the uniform variate biases samples toward 0 with
// density ~ x^(-2/3), which is what gives low-index vertices their
// power-law in-degree (and hub contention for the push kernels).
func cubeScale(n uint64, r uint64) uint64 {
	h, _ := bits.Mul64(r, r)
	h, _ = bits.Mul64(h, r)
	h, _ = bits.Mul64(h, n)
	return h
}

// Generate builds the graph for p: per-vertex out-degrees drawn from a
// truncated power law, targets drawn half uniformly (connectivity)
// and half cube-biased toward low vertex indices (hubs), no
// self-loops, no duplicate edges, per-vertex targets sorted. The walk
// is strictly sequential over one splitmix64 stream, so the result
// depends only on p.
func Generate(p Params) *Graph {
	rng := p.Seed
	n := p.N
	maxExtra := 4 * (p.AvgDeg - 1) // mean of the cube-biased part is ~1/4
	if maxExtra < 1 {
		maxExtra = 1
	}
	g := &Graph{P: p, OutOff: make([]int32, n+1)}
	var dsts []int32
	for u := 0; u < n; u++ {
		want := 1 + int(cubeScale(uint64(maxExtra), splitmix64(&rng)))
		dsts = dsts[:0]
		for tries := 0; len(dsts) < want && tries < 4*want+16; tries++ {
			r := splitmix64(&rng)
			var t int
			if r&1 == 0 {
				t = int(cubeScale(uint64(n), splitmix64(&rng)))
			} else {
				t = int(splitmix64(&rng) % uint64(n))
			}
			if t == u {
				continue
			}
			dup := false
			for _, have := range dsts {
				if int(have) == t {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			dsts = append(dsts, int32(t))
		}
		if len(dsts) == 0 {
			dsts = append(dsts, int32((u+1)%n))
		}
		sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
		g.OutDst = append(g.OutDst, dsts...)
		for range dsts {
			g.OutW = append(g.OutW, 1+uint32(splitmix64(&rng)&7))
		}
		g.OutOff[u+1] = int32(len(g.OutDst))
	}
	g.buildCSC()
	return g
}

// buildCSC derives the in-edge (pull) representation by a counting
// sort over the out-edges: per-target sources arrive in ascending
// source order.
func (g *Graph) buildCSC() {
	n := g.P.N
	g.InOff = make([]int32, n+1)
	for _, t := range g.OutDst {
		g.InOff[t+1]++
	}
	for v := 0; v < n; v++ {
		g.InOff[v+1] += g.InOff[v]
	}
	g.InSrc = make([]int32, len(g.OutDst))
	g.InW = make([]uint32, len(g.OutDst))
	cursor := make([]int32, n)
	copy(cursor, g.InOff[:n])
	for u := 0; u < n; u++ {
		for e := g.OutOff[u]; e < g.OutOff[u+1]; e++ {
			t := g.OutDst[e]
			g.InSrc[cursor[t]] = int32(u)
			g.InW[cursor[t]] = g.OutW[e]
			cursor[t]++
		}
	}
}
