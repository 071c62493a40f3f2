package graph

import (
	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
	"denovogpu/internal/workload"
)

// ssspInf is the unreached distance; small enough that inf + maxWeight
// cannot wrap a uint32 (AtomicMin is unsigned).
const ssspInf = 1 << 30

// SSSP builds the frontier Bellman-Ford workload: a push kernel where
// active vertices relax their out-edges with relaxed AtomicMin (and
// raise the target's next-round flag with relaxed AtomicExch), then a
// dense pull kernel swapping the activity bitmaps. Rounds repeat until
// a fixpoint (no distance lowered).
func SSSP(p Params) workload.Workload {
	g := Generate(p)
	a := workload.NewArena()
	outOff := a.Words(p.N + 1)
	outDst := a.Words(g.NumEdges())
	outW := a.Words(g.NumEdges())
	dist := a.Words(p.N)
	active := a.Words(p.N)
	next := a.Words(p.N)
	counts := a.Words(maxWorkers) // per-worker improving relaxations

	relax := func(c *workload.Ctx) {
		wLo, wHi := workerRange(c, p.N)
		improved := uint32(0)
		var av []uint32
		for base := wLo; base < wHi; base += threadsPerTB {
			av = c.LoadStrideInto(av, active+mem.Addr(4*base))
			for i, flag := range av {
				if flag == 0 {
					continue
				}
				u := base + i
				du := c.Load(dist + mem.Addr(4*u))
				lo := c.Load(outOff + mem.Addr(4*u))
				hi := c.Load(outOff + mem.Addr(4*(u+1)))
				for e := lo; e < hi; e++ {
					t := c.Load(outDst + mem.Addr(4*e))
					w := c.Load(outW + mem.Addr(4*e))
					nd := du + w
					if old := c.AtomicMinRelaxed(dist+mem.Addr(4*t), nd, coherence.ScopeGlobal); old > nd {
						c.AtomicExchRelaxed(next+mem.Addr(4*t), 1, coherence.ScopeGlobal)
						improved++
					}
				}
			}
		}
		c.Store(counts+mem.Addr(4*workerID(c)), improved)
	}
	swap := func(c *workload.Ctx) {
		wLo, wHi := workerRange(c, p.N)
		var nv []uint32
		zero := make([]uint32, threadsPerTB)
		for base := wLo; base < wHi; base += threadsPerTB {
			nv = c.LoadStrideInto(nv, next+mem.Addr(4*base))
			c.StoreStride(active+mem.Addr(4*base), nv)
			c.StoreStride(next+mem.Addr(4*base), zero)
		}
	}

	return workload.Workload{
		Name:     "SSSP",
		Input:    inputDesc(p),
		Category: workload.Graph,
		Host: func(h workload.Host) {
			h.WriteWords(outOff, u32s(g.OutOff))
			h.WriteWords(outDst, u32s(g.OutDst))
			h.WriteWords(outW, g.OutW)
			h.SetReadOnly(outOff, dist)
			dv := fill(p.N, ssspInf)
			dv[bfsSrc] = 0
			h.WriteWords(dist, dv)
			av := fill(p.N, 0)
			av[bfsSrc] = 1
			h.WriteWords(active, av)
			h.WriteWords(next, fill(p.N, 0))
			tbs := workerGrid(h)
			for round := 0; round <= p.N; round++ {
				h.LaunchPhase(workload.PhasePush, relax, tbs, threadsPerTB)
				h.LaunchPhase(workload.PhasePull, swap, tbs, threadsPerTB)
				if sumSlots(h, counts, tbs) == 0 {
					break
				}
			}
		},
		Verify: func(h workload.Host) error {
			return checkWords(h, "SSSP", dist, refSSSP(g, bfsSrc))
		},
	}
}
