package graph

import (
	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
	"denovogpu/internal/workload"
)

// Fixed-point PageRank constants: ranks are scaled by 2^10, damping
// 0.85 ~ prDamp/2^10, teleport mass 0.15 ~ prBase/2^10. Integer
// arithmetic keeps the device result exactly reproducible by the
// sequential reference (uint32 additions commute), on top of the
// tolerance check against the float reference.
const (
	prIters = 4
	prOne   = 1 << 10
	prBase  = 154 // round(0.15 * 2^10)
	prDamp  = 870 // round(0.85 * 2^10)
)

// hubCut is the hub partition boundary: vertices below it are "hubs".
// The generator biases edge targets toward low indices, so the low
// quarter of the vertex ID space holds the high in-degree vertices.
// The cut is tile-aligned so the gather kernel's worker ranges stay
// whole thread-block tiles.
func hubCut(n int) int { return n / 4 / threadsPerTB * threadsPerTB }

// PageRank builds a hub-partitioned hybrid PageRank: per iteration a
// push kernel scatters contributions to low in-degree targets with
// relaxed AtomicAdd (spreading the atomics across the long tail), a
// pull kernel gathers each high in-degree hub's accumulator from its
// in-edge list with plain loads and a single store (no atomic hotspot
// on hubs), and a second pull kernel applies the damping update and
// refreshes the per-vertex contribution. The partition is the standard
// remedy for atomic contention on power-law hubs, and it gives the
// pull phase real ownership-friendly work: the hub gather re-reads the
// same CSC slice every iteration.
func PageRank(p Params) workload.Workload {
	g := Generate(p)
	hub := hubCut(p.N)
	a := workload.NewArena()
	outOff := a.Words(p.N + 1)
	outDst := a.Words(g.NumEdges())
	inOff := a.Words(p.N + 1)
	inSrc := a.Words(g.NumEdges())
	contrib := a.Words(p.N)
	rank := a.Words(p.N)
	acc := a.Words(p.N)

	scatter := func(c *workload.Ctx) {
		wLo, wHi := workerRange(c, p.N)
		var cv, offs []uint32
		for base := wLo; base < wHi; base += threadsPerTB {
			cv = c.LoadStrideInto(cv, contrib+mem.Addr(4*base))
			offs = c.LoadStrideInto(offs, outOff+mem.Addr(4*base))
			end := c.Load(outOff + mem.Addr(4*(base+threadsPerTB)))
			for i := 0; i < threadsPerTB; i++ {
				if cv[i] == 0 {
					continue
				}
				lo := offs[i]
				hi := end
				if i+1 < threadsPerTB {
					hi = offs[i+1]
				}
				for e := lo; e < hi; e++ {
					t := c.Load(outDst + mem.Addr(4*e))
					if int(t) >= hub {
						c.AtomicAddRelaxed(acc+mem.Addr(4*t), cv[i], coherence.ScopeGlobal)
					}
				}
			}
		}
	}
	gather := func(c *workload.Ctx) {
		wLo, wHi := workerRange(c, hub)
		var offs []uint32
		sums := make([]uint32, threadsPerTB)
		for base := wLo; base < wHi; base += threadsPerTB {
			offs = c.LoadStrideInto(offs, inOff+mem.Addr(4*base))
			end := c.Load(inOff + mem.Addr(4*(base+threadsPerTB)))
			for i := 0; i < threadsPerTB; i++ {
				lo := offs[i]
				hi := end
				if i+1 < threadsPerTB {
					hi = offs[i+1]
				}
				s := uint32(0)
				for e := lo; e < hi; e++ {
					u := c.Load(inSrc + mem.Addr(4*e))
					s += c.Load(contrib + mem.Addr(4*u))
				}
				sums[i] = s
			}
			c.StoreStride(acc+mem.Addr(4*base), sums)
		}
	}
	apply := func(c *workload.Ctx) {
		wLo, wHi := workerRange(c, p.N)
		var av, offs []uint32
		newRank := make([]uint32, threadsPerTB)
		newContrib := make([]uint32, threadsPerTB)
		zero := make([]uint32, threadsPerTB)
		for base := wLo; base < wHi; base += threadsPerTB {
			av = c.LoadStrideInto(av, acc+mem.Addr(4*base))
			offs = c.LoadStrideInto(offs, outOff+mem.Addr(4*base))
			end := c.Load(outOff + mem.Addr(4*(base+threadsPerTB)))
			for i, v := range av {
				r := prBase + prDamp*v>>10
				lo := offs[i]
				hi := end
				if i+1 < threadsPerTB {
					hi = offs[i+1]
				}
				newRank[i] = r
				newContrib[i] = r / (hi - lo)
			}
			c.StoreStride(rank+mem.Addr(4*base), newRank)
			c.StoreStride(contrib+mem.Addr(4*base), newContrib)
			c.StoreStride(acc+mem.Addr(4*base), zero)
		}
	}

	return workload.Workload{
		Name:     "PR",
		Input:    inputDesc(p),
		Category: workload.Graph,
		Host: func(h workload.Host) {
			h.WriteWords(outOff, u32s(g.OutOff))
			h.WriteWords(outDst, u32s(g.OutDst))
			h.WriteWords(inOff, u32s(g.InOff))
			h.WriteWords(inSrc, u32s(g.InSrc))
			h.SetReadOnly(outOff, contrib)
			cv := make([]uint32, p.N)
			for u := 0; u < p.N; u++ {
				cv[u] = prOne / uint32(g.OutOff[u+1]-g.OutOff[u])
			}
			h.WriteWords(contrib, cv)
			h.WriteWords(rank, fill(p.N, prOne))
			h.WriteWords(acc, fill(p.N, 0))
			tbs := workerGrid(h)
			for it := 0; it < prIters; it++ {
				h.LaunchPhase(workload.PhasePush, scatter, tbs, threadsPerTB)
				h.LaunchPhase(workload.PhasePull, gather, tbs, threadsPerTB)
				h.LaunchPhase(workload.PhasePull, apply, tbs, threadsPerTB)
			}
		},
		Verify: func(h workload.Host) error {
			if err := checkWords(h, "PR", rank, refPageRank(g)); err != nil {
				return err
			}
			return checkPRTolerance(h, rank, g)
		},
	}
}
