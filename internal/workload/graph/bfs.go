package graph

import (
	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
	"denovogpu/internal/workload"
)

// bfsInf marks an undiscovered vertex.
const bfsInf = 0xFFFFFFFF

// bfsSrc is the traversal root.
const bfsSrc = 0

// BFS builds the direction-optimizing breadth-first search workload: a
// push kernel (frontier vertices scatter level updates to their
// out-neighbors with relaxed AtomicMin) while the frontier is small,
// and a pull kernel (undiscovered vertices scan their in-neighbors and
// claim a level with a plain store) while it is large. The host picks
// the direction per level from the device's discovered counter, so the
// kernel sequence is identical under every protocol configuration.
func BFS(p Params) workload.Workload {
	g := Generate(p)
	a := workload.NewArena()
	outOff := a.Words(p.N + 1)
	outDst := a.Words(g.NumEdges())
	inOff := a.Words(p.N + 1)
	inSrc := a.Words(g.NumEdges())
	level := a.Words(p.N)
	counts := a.Words(maxWorkers) // per-worker discoveries this kernel

	push := func(d uint32) workload.Kernel {
		return func(c *workload.Ctx) {
			wLo, wHi := workerRange(c, p.N)
			found := uint32(0)
			var lv []uint32
			for base := wLo; base < wHi; base += threadsPerTB {
				lv = c.LoadStrideInto(lv, level+mem.Addr(4*base))
				for i, l := range lv {
					if l != d {
						continue
					}
					u := base + i
					lo := c.Load(outOff + mem.Addr(4*u))
					hi := c.Load(outOff + mem.Addr(4*(u+1)))
					for e := lo; e < hi; e++ {
						t := c.Load(outDst + mem.Addr(4*e))
						old := c.AtomicMinRelaxed(level+mem.Addr(4*t), d+1, coherence.ScopeGlobal)
						if old == bfsInf {
							found++
						}
					}
				}
			}
			c.Store(counts+mem.Addr(4*workerID(c)), found)
		}
	}
	pull := func(d uint32) workload.Kernel {
		return func(c *workload.Ctx) {
			wLo, wHi := workerRange(c, p.N)
			found := uint32(0)
			var lv []uint32
			for base := wLo; base < wHi; base += threadsPerTB {
				lv = c.LoadStrideInto(lv, level+mem.Addr(4*base))
				for i, l := range lv {
					if l != bfsInf {
						continue
					}
					v := base + i
					lo := c.Load(inOff + mem.Addr(4*v))
					hi := c.Load(inOff + mem.Addr(4*(v+1)))
					for e := lo; e < hi; e++ {
						u := c.Load(inSrc + mem.Addr(4*e))
						if c.Load(level+mem.Addr(4*u)) == d {
							c.Store(level+mem.Addr(4*v), d+1)
							found++
							break
						}
					}
				}
			}
			c.Store(counts+mem.Addr(4*workerID(c)), found)
		}
	}

	return workload.Workload{
		Name:     "BFS",
		Input:    inputDesc(p),
		Category: workload.Graph,
		Host: func(h workload.Host) {
			h.WriteWords(outOff, u32s(g.OutOff))
			h.WriteWords(outDst, u32s(g.OutDst))
			h.WriteWords(inOff, u32s(g.InOff))
			h.WriteWords(inSrc, u32s(g.InSrc))
			h.SetReadOnly(outOff, level)
			lv := fill(p.N, bfsInf)
			lv[bfsSrc] = 0
			h.WriteWords(level, lv)
			tbs := workerGrid(h)
			frontier := 1
			usePull := false
			for d := uint32(0); frontier > 0 && int(d) <= p.N; d++ {
				// Direction-optimizing switch: go pull once the frontier is a
				// sizable fraction of the graph. There is no switch back for
				// the sparse tail: unlike queue-based push BFS, both kernels
				// here scan the full vertex array, so a late direction change
				// regains nothing — and late pull levels are cheap anyway
				// (few undiscovered vertices remain, and the level array
				// stays hot in the pull phase's caches), while every
				// direction change costs a phase drain under a specialized
				// configuration.
				if !usePull && frontier > p.N/64 {
					usePull = true
				}
				if usePull {
					h.LaunchPhase(workload.PhasePull, pull(d), tbs, threadsPerTB)
				} else {
					h.LaunchPhase(workload.PhasePush, push(d), tbs, threadsPerTB)
				}
				frontier = sumSlots(h, counts, tbs)
			}
		},
		Verify: func(h workload.Host) error {
			return checkWords(h, "BFS", level, refBFS(g, bfsSrc))
		},
	}
}
