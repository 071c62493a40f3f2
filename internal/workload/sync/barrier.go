package syncbench

import (
	"fmt"

	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
	"denovogpu/internal/workload"
)

// BarrierParams configures the tree-barrier benchmarks (TB_LG,
// TBEX_LG). All thread blocks on a CU join a locally scoped barrier;
// one representative per CU then joins the globally scoped barrier
// (a two-level tree barrier). Each iteration's compute phase exchanges
// double-buffered data between blocks: TB_LG exchanges with a block on
// another CU; TBEX_LG additionally exchanges with a sibling block on
// the same CU before joining the global barrier.
type BarrierParams struct {
	LocalExchange bool // TBEX_LG
	TBsPerCU      int
	Iters         int
	Accesses      int
	Threads       int
	NumCUs        int // CUs per device
	Devices       int // devices; the global barrier spans all of them
}

func (p BarrierParams) defaults() BarrierParams {
	if p.TBsPerCU == 0 {
		p.TBsPerCU = DefaultTBsPerCU
	}
	if p.Iters == 0 {
		p.Iters = DefaultIters
	}
	if p.Accesses == 0 {
		p.Accesses = DefaultAccesses
	}
	if p.Threads == 0 {
		p.Threads = DefaultThreads
	}
	if p.NumCUs == 0 {
		p.NumCUs = 15
	}
	if p.Devices == 0 {
		p.Devices = 1
	}
	return p
}

// TreeBarrier builds TB_LG or TBEX_LG.
func TreeBarrier(p BarrierParams) workload.Workload {
	p = p.defaults()
	name := "TB_LG"
	if p.LocalExchange {
		name = "TBEX_LG"
	}
	name += devSuffix(p.Devices)
	workers := p.Devices * p.NumCUs
	numTBs := p.TBsPerCU * workers
	regionWords := p.Accesses * p.Threads

	lay := workload.NewArena()
	gcount := lay.Line()
	gsense := lay.Line()
	lcounts := make([]mem.Addr, workers)
	lsenses := make([]mem.Addr, workers)
	for i := range lcounts {
		lcounts[i] = lay.Line()
		lsenses[i] = lay.Line()
	}
	// Double-buffered per-block regions: iteration it reads buffer
	// it%2 and writes buffer 1-it%2, so cross-block reads are race-free
	// (separated from the writes by the previous iteration's barrier).
	bufs := [2][]mem.Addr{}
	for b := 0; b < 2; b++ {
		bufs[b] = make([]mem.Addr, numTBs)
		for i := range bufs[b] {
			bufs[b][i] = lay.Words(regionWords)
		}
	}
	// Read-only coefficients used by every compute phase: genuinely
	// read-only program data that DD+RO's selective invalidation (and
	// GH's local scopes) can keep cached across barriers.
	coef := lay.Words(regionWords)
	coefAt := func(i int) uint32 { return uint32(i%7 + 1) }

	// twoLevelBarrier joins the two-level phase-counting barrier; phase
	// is the number of barriers this block has completed.
	twoLevelBarrier := func(c *workload.Ctx, phase uint32) {
		lcount, lsense := lcounts[c.CU], lsenses[c.CU]
		arrived := c.AtomicAdd(lcount, 1, coherence.ScopeLocal) + 1
		if arrived == uint32(p.TBsPerCU) {
			c.AtomicStore(lcount, 0, coherence.ScopeLocal)
			// Representative joins the global barrier.
			g := c.AtomicAdd(gcount, 1, coherence.ScopeGlobal) + 1
			if g == uint32(workers) {
				c.AtomicStore(gcount, 0, coherence.ScopeGlobal)
				c.AtomicAdd(gsense, 1, coherence.ScopeGlobal)
			} else {
				spinLoad(c, gsense, coherence.ScopeGlobal, workload.CmpGt, phase, true)
			}
			c.AtomicAdd(lsense, 1, coherence.ScopeLocal)
		} else {
			spinLoad(c, lsense, coherence.ScopeLocal, workload.CmpGt, phase, true)
		}
	}

	kernel := func(c *workload.Ctx) {
		// One load buffer per value live at once; own is also the
		// stored result.
		var own, part, cf, sib []uint32
		for it := 0; it < p.Iters; it++ {
			src, dst := bufs[it%2], bufs[1-it%2]
			remote := (c.TB + 1) % numTBs // lives on the next CU
			sibling := (c.TB/c.NumCUs+1)%p.TBsPerCU*c.NumCUs + c.CU
			for j := 0; j < p.Accesses; j++ {
				off := mem.Addr(4 * j * c.Threads)
				own = c.LoadStrideInto(own, src[c.TB]+off)
				part = c.LoadStrideInto(part, src[remote]+off)
				cf = c.LoadStrideInto(cf, coef+off)
				for i := range own {
					own[i] += part[i] * cf[i]
				}
				if p.LocalExchange {
					sib = c.LoadStrideInto(sib, src[sibling]+off)
					for i := range own {
						own[i] += sib[i]
					}
				}
				c.StoreStride(dst[c.TB]+off, own)
			}
			twoLevelBarrier(c, uint32(it))
		}
	}

	refInit := func(tb, i int) uint32 { return uint32(tb*1000 + i) }

	return workload.Workload{
		Name:     name,
		Input:    fmt.Sprintf("%d TBs/CU, %d iters/TB/kernel, %d Ld&St/thr/iter", p.TBsPerCU, p.Iters, p.Accesses),
		Category: devCategory(p.Devices, workload.LocalSync),
		Devices:  p.Devices,
		Host: func(h workload.Host) {
			for tb := 0; tb < numTBs; tb++ {
				for i := 0; i < regionWords; i++ {
					h.Write(bufs[0][tb]+mem.Addr(4*i), refInit(tb, i))
				}
			}
			for i := 0; i < regionWords; i++ {
				h.Write(coef+mem.Addr(4*i), coefAt(i))
			}
			h.SetReadOnly(coef, coef+mem.Addr(4*regionWords))
			h.Launch(kernel, numTBs, p.Threads)
		},
		Verify: func(h workload.Host) error {
			// Two reference buffer sets, ping-ponged like the kernel's.
			cur, next := make([][]uint32, numTBs), make([][]uint32, numTBs)
			for tb := range cur {
				cur[tb] = make([]uint32, regionWords)
				next[tb] = make([]uint32, regionWords)
				for i := range cur[tb] {
					cur[tb][i] = refInit(tb, i)
				}
			}
			for it := 0; it < p.Iters; it++ {
				for tb := range next {
					remote := (tb + 1) % numTBs
					cu := tb % workers
					sibling := (tb/workers+1)%p.TBsPerCU*workers + cu
					for i := range next[tb] {
						v := cur[tb][i] + cur[remote][i]*coefAt(i)
						if p.LocalExchange {
							v += cur[sibling][i]
						}
						next[tb][i] = v
					}
				}
				cur, next = next, cur
			}
			final := bufs[p.Iters%2]
			for tb := 0; tb < numTBs; tb++ {
				for i := 0; i < regionWords; i++ {
					if got := h.Read(final[tb] + mem.Addr(4*i)); got != cur[tb][i] {
						return fmt.Errorf("%s block %d word %d = %d, want %d", name, tb, i, got, cur[tb][i])
					}
				}
			}
			return nil
		},
	}
}

func init() {
	workload.Register(TreeBarrier(BarrierParams{LocalExchange: false}))
	workload.Register(TreeBarrier(BarrierParams{LocalExchange: true}))
}
