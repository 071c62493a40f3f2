package syncbench

import (
	"fmt"

	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
	"denovogpu/internal/workload"
)

// SemParams configures the reader-writer spin semaphore benchmark
// (SS_L / SSBO_L). Each CU has one writer thread block and two reader
// thread blocks synchronizing through a locally scoped counting
// semaphore. Readers take one slot and read half the CU's data (10
// loads/thread/iter); the writer takes the entire semaphore and shifts
// the data right by one element (20 stores/thread/iter), leaving the
// first element untouched.
type SemParams struct {
	Backoff  bool
	Iters    int
	Threads  int
	NumCUs   int // CUs per device
	Devices  int // devices; one semaphore/region per CU on every device
	LoadsPer int // reader loads per thread per iteration
}

func (p SemParams) defaults() SemParams {
	if p.Iters == 0 {
		p.Iters = DefaultIters
	}
	if p.Threads == 0 {
		p.Threads = DefaultThreads
	}
	if p.NumCUs == 0 {
		p.NumCUs = 15
	}
	if p.LoadsPer == 0 {
		p.LoadsPer = DefaultAccesses
	}
	if p.Devices == 0 {
		p.Devices = 1
	}
	return p
}

// Semaphore builds SS_L or SSBO_L.
func Semaphore(p SemParams) workload.Workload {
	p = p.defaults()
	name := "SS_L"
	if p.Backoff {
		name = "SSBO_L"
	}
	name += devSuffix(p.Devices)
	workers := p.Devices * p.NumCUs
	const readers = 2
	halfWords := p.LoadsPer * p.Threads // each reader's half
	regionWords := readers * halfWords

	lay := workload.NewArena()
	sems := make([]mem.Addr, workers)
	regions := make([]mem.Addr, workers)
	for i := range sems {
		sems[i] = lay.Line()
		regions[i] = lay.Words(regionWords + 1) // +1: shift writes region[1..regionWords]
	}
	scope := coherence.ScopeLocal

	// semTake acquires n slots of the CU's semaphore (capacity =
	// readers); the writer takes all of them. It spins until n slots
	// are free, then claims them with a CAS; a lost CAS is one more
	// failed attempt of the same spin, backoff included.
	semTake := func(c *workload.Ctx, sem mem.Addr, n uint32) {
		s := workload.Spin{
			Op: coherence.AtomicLoad, Addr: sem, Scope: scope,
			Cmp: workload.CmpGe, Value: n, Compute: spinCompute, Delay: spinDelay, Backoff: p.Backoff,
		}
		for {
			v := c.SpinAtomic(&s)
			if c.AtomicCAS(sem, v, v-n, scope) == v {
				return
			}
			c.SpinPause(&s)
		}
	}
	semGive := func(c *workload.Ctx, sem mem.Addr, n uint32) {
		c.AtomicAdd(sem, n, scope)
	}

	kernel := func(c *workload.Ctx) {
		sem, region := sems[c.CU], regions[c.CU]
		rank := c.TB / c.NumCUs // 0 = writer, 1..2 = readers
		buf := make([]uint32, c.Threads)
		for it := 0; it < p.Iters; it++ {
			if rank == 0 {
				semTake(c, sem, readers)
				// Shift the region right by one word: 20 loads + 20
				// stores per thread, leaving word 0 unwritten. Chunks go
				// high to low so each chunk reads pre-shift values.
				per := regionWords / p.Threads // words per thread
				for j := per - 1; j >= 0; j-- {
					base := region + mem.Addr(4*j*c.Threads)
					buf = c.LoadStrideInto(buf, base)
					c.StoreStride(base+mem.Addr(4), buf)
				}
				semGive(c, sem, readers)
			} else {
				semTake(c, sem, 1)
				half := region + mem.Addr(4*(rank-1)*halfWords)
				for j := 0; j < p.LoadsPer; j++ {
					c.LoadStrideInto(buf, half+mem.Addr(4*j*c.Threads))
				}
				semGive(c, sem, 1)
			}
		}
	}

	return workload.Workload{
		Name:     name,
		Input:    fmt.Sprintf("3 TBs/CU, %d iters/TB/kernel, readers %d Ld/thr/iter, writers %d St/thr/iter", p.Iters, p.LoadsPer, 2*p.LoadsPer),
		Category: devCategory(p.Devices, workload.LocalSync),
		Devices:  p.Devices,
		Host: func(h workload.Host) {
			for cu := 0; cu < workers; cu++ {
				for i := 0; i <= regionWords; i++ {
					h.Write(regions[cu]+mem.Addr(4*i), uint32(1000+i))
				}
				h.Write(sems[cu], readers)
			}
			h.Launch(kernel, 3*workers, p.Threads)
		},
		Verify: func(h workload.Host) error {
			// After I shifts, word j = init[max(0, j-I)]; init[j] = 1000+j.
			for cu := 0; cu < workers; cu++ {
				for j := 0; j <= regionWords; j++ {
					src := j - p.Iters
					if src < 0 {
						src = 0
					}
					want := uint32(1000 + src)
					if got := h.Read(regions[cu] + mem.Addr(4*j)); got != want {
						return fmt.Errorf("%s CU %d word %d = %d, want %d", name, cu, j, got, want)
					}
				}
				if got := h.Read(sems[cu]); got != readers {
					return fmt.Errorf("%s CU %d semaphore = %d, want %d", name, cu, got, readers)
				}
			}
			return nil
		},
	}
}

func init() {
	workload.Register(Semaphore(SemParams{Backoff: false}))
	workload.Register(Semaphore(SemParams{Backoff: true}))
}
