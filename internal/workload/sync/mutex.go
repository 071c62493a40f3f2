package syncbench

import (
	"fmt"

	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
	"denovogpu/internal/workload"
)

// MutexKind selects the mutex algorithm (Stuart & Owens).
type MutexKind int

const (
	// FAMutex is the fetch-and-add (ticket) mutex.
	FAMutex MutexKind = iota
	// SleepMutex sleeps a fixed quantum between attempts.
	SleepMutex
	// SpinMutex is a hot CAS test-and-set loop.
	SpinMutex
	// SpinMutexBackoff adds exponential backoff.
	SpinMutexBackoff
)

func (k MutexKind) prefix() string {
	switch k {
	case FAMutex:
		return "FAM"
	case SleepMutex:
		return "SLM"
	case SpinMutex:
		return "SPM"
	default:
		return "SPMBO"
	}
}

// MutexParams configures a mutex microbenchmark instance.
type MutexParams struct {
	Kind     MutexKind
	Local    bool // per-CU lock and data (locally scoped) vs one global lock and shared data
	TBsPerCU int
	Iters    int
	Accesses int // loads & stores per thread per iteration
	Threads  int
	NumCUs   int // CUs per device
	Devices  int // devices; the grid spans Devices*NumCUs workers
}

func (p MutexParams) defaults() MutexParams {
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

// Mutex builds a mutex microbenchmark workload. The global variant
// guards one shared data region with one lock; the local variant gives
// each CU its own lock and unique data and annotates the lock accesses
// with local scope. With Devices > 1 the grid spans every device's
// CUs: the global variants contend for one lock across the
// inter-device link, the local variants stay device-resident.
func Mutex(p MutexParams) workload.Workload {
	p = p.defaults()
	suffix := "_G"
	if p.Local {
		suffix = "_L"
	}
	name := p.Kind.prefix() + suffix + devSuffix(p.Devices)
	workers := p.Devices * p.NumCUs

	lay := workload.NewArena()
	regionWords := p.Accesses * p.Threads
	nLocks := 1
	if p.Local {
		nLocks = workers
	}
	locks := make([]mem.Addr, nLocks)   // CAS lock or FAM ticket
	turns := make([]mem.Addr, nLocks)   // FAM turn counter
	regions := make([]mem.Addr, nLocks) // data guarded by each lock
	for i := range locks {
		locks[i] = lay.Line()
		turns[i] = lay.Line()
		regions[i] = lay.Words(regionWords)
	}
	scope := coherence.ScopeGlobal
	if p.Local {
		scope = coherence.ScopeLocal
	}

	kernel := func(c *workload.Ctx) {
		idx := 0
		if p.Local {
			idx = c.CU
		}
		lock, turn, data := locks[idx], turns[idx], regions[idx]
		buf := make([]uint32, c.Threads)
		for it := 0; it < p.Iters; it++ {
			switch p.Kind {
			case FAMutex:
				faLock(c, lock, turn, scope, false)
			case SleepMutex:
				sleepLock(c, lock, scope)
			case SpinMutex:
				spinLock(c, lock, scope, false)
			case SpinMutexBackoff:
				spinLock(c, lock, scope, true)
			}
			criticalSection(c, data, p.Accesses, buf)
			switch p.Kind {
			case FAMutex:
				faUnlock(c, turn, scope)
			default:
				spinUnlock(c, lock, scope)
			}
		}
	}

	numTBs := p.TBsPerCU * workers
	return workload.Workload{
		Name:  name,
		Input: fmt.Sprintf("%d TBs/CU, %d iters/TB/kernel, %d Ld&St/thr/iter", p.TBsPerCU, p.Iters, p.Accesses),
		Category: func() workload.Category {
			if p.Local {
				return devCategory(p.Devices, workload.LocalSync)
			}
			return devCategory(p.Devices, workload.GlobalSync)
		}(),
		Devices: p.Devices,
		Host: func(h workload.Host) {
			h.Launch(kernel, numTBs, p.Threads)
		},
		Verify: func(h workload.Host) error {
			if p.Local {
				per := uint32(p.TBsPerCU * p.Iters)
				for cu := 0; cu < workers; cu++ {
					if err := expectData(h, regions[cu], regionWords, per, fmt.Sprintf("%s CU %d", name, cu)); err != nil {
						return err
					}
				}
				return nil
			}
			total := uint32(numTBs * p.Iters)
			return expectData(h, regions[0], regionWords, total, name)
		},
	}
}

func init() {
	for _, kind := range []MutexKind{FAMutex, SleepMutex, SpinMutex, SpinMutexBackoff} {
		for _, local := range []bool{false, true} {
			workload.Register(Mutex(MutexParams{Kind: kind, Local: local}))
		}
	}
}
