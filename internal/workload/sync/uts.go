package syncbench

import (
	"fmt"

	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
	"denovogpu/internal/workload"
)

// UTS is the Unbalanced Tree Search benchmark (the one fine-grained
// synchronization benchmark in the HRF paper): thread blocks traverse
// an implicit, highly unbalanced tree. Each CU keeps a work stack
// guarded by a locally scoped lock; when a CU's stack overflows or
// runs dry, blocks push to / pull from a global task queue guarded by
// a globally scoped lock — the dynamic sharing pattern that scoped
// protocols handle poorly (Table 2's "Dynamic Sharing" row).
//
// The tree is implicit and deterministic: a node's child count is a
// hash of its key, so the host computes the exact node total for
// verification and the device needs no tree storage.

// utsHash is a xorshift-style mixer (splitmix32 finalizer).
func utsHash(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// utsChildCount returns the number of children of the node with the
// given key: slightly subcritical branching (E ≈ 0.95) so the tree is
// finite but deep and unbalanced.
func utsChildCount(key uint32) int {
	r := utsHash(key) % 100
	switch {
	case r < 10:
		return 4
	case r < 30:
		return 2
	case r < 45:
		return 1
	default:
		return 0
	}
}

// utsChildKey derives child i's key.
func utsChildKey(key uint32, i int) uint32 {
	return utsHash(key*2654435761 + uint32(i) + 0x9e3779b9)
}

// utsCountNodes walks the tree on the host, returning the total node
// count (and guarding against runaway trees).
func utsCountNodes(rootChildren int, limit int) int {
	stack := make([]uint32, 0, 1024)
	for i := 0; i < rootChildren; i++ {
		stack = append(stack, utsChildKey(1, i))
	}
	count := 1 // root
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		if count > limit {
			panic(fmt.Sprintf("syncbench: UTS tree exceeded %d nodes; retune branching", limit))
		}
		for i := 0; i < utsChildCount(k); i++ {
			stack = append(stack, utsChildKey(k, i))
		}
	}
	return count
}

// UTSParams configures the benchmark.
type UTSParams struct {
	RootChildren int // fan-out of the root; total ≈ 20x this
	NumCUs       int // CUs per device
	Devices      int // devices; the global queue is shared across all
	TBsPerCU     int
	Threads      int
	Batch        int // nodes claimed per stack visit
	NodeWork     int // compute cycles per node
	LocalCap     int // per-CU stack capacity (keys)
}

func (p UTSParams) defaults() UTSParams {
	if p.RootChildren == 0 {
		p.RootChildren = 768 // total ≈ 16K nodes (Table 4)
	}
	if p.NumCUs == 0 {
		p.NumCUs = 15
	}
	if p.Devices == 0 {
		p.Devices = 1
	}
	if p.TBsPerCU == 0 {
		p.TBsPerCU = DefaultTBsPerCU
	}
	if p.Threads == 0 {
		p.Threads = DefaultThreads
	}
	if p.Batch == 0 {
		p.Batch = 8
	}
	if p.NodeWork == 0 {
		p.NodeWork = 40
	}
	if p.LocalCap == 0 {
		// Small enough that deep subtrees overflow to the global queue,
		// redistributing work (the paper's load-imbalance mitigation).
		p.LocalCap = 96
	}
	return p
}

// UTS builds the benchmark.
func UTS(p UTSParams) workload.Workload {
	p = p.defaults()
	total := utsCountNodes(p.RootChildren, 1_000_000)
	workers := p.Devices * p.NumCUs
	name := "UTS" + devSuffix(p.Devices)

	lay := workload.NewArena()
	pending := lay.Line() // count of unprocessed nodes in the system
	glock := lay.Line()
	gtop := lay.Line()
	gstack := lay.Words(256 * 1024)
	llocks := make([]mem.Addr, workers)
	ltops := make([]mem.Addr, workers)
	lstacks := make([]mem.Addr, workers)
	lprocessed := make([]mem.Addr, workers)
	for i := range llocks {
		llocks[i] = lay.Line()
		ltops[i] = lay.Line()
		lstacks[i] = lay.Words(p.LocalCap)
		lprocessed[i] = lay.Line()
	}

	kernel := func(c *workload.Ctx) {
		cu := c.CU
		llock, ltop, lstack := llocks[cu], ltops[cu], lstacks[cu]
		processed := 0
		delta := int32(0)
		flush := func() {
			if delta != 0 {
				c.AtomicAdd(pending, uint32(delta), coherence.ScopeGlobal)
				delta = 0
			}
		}
		// popLocal claims up to Batch keys from the CU stack.
		popLocal := func() []uint32 {
			spinLock(c, llock, coherence.ScopeLocal, true)
			top := int(c.Load(ltop))
			n := min(p.Batch, top)
			keys := make([]uint32, 0, n)
			for i := 0; i < n; i++ {
				keys = append(keys, c.Load(lstack+mem.Addr(4*(top-1-i))))
			}
			if n > 0 {
				c.Store(ltop, uint32(top-n))
			}
			spinUnlock(c, llock, coherence.ScopeLocal)
			return keys
		}
		// pushKeys places keys on the CU stack, spilling to the global
		// queue when the local stack is full.
		pushKeys := func(keys []uint32) {
			spinLock(c, llock, coherence.ScopeLocal, true)
			top := int(c.Load(ltop))
			fit := min(len(keys), p.LocalCap-top)
			for i := 0; i < fit; i++ {
				c.Store(lstack+mem.Addr(4*(top+i)), keys[i])
			}
			if fit > 0 {
				c.Store(ltop, uint32(top+fit))
			}
			spinUnlock(c, llock, coherence.ScopeLocal)
			if rest := keys[fit:]; len(rest) > 0 {
				spinLock(c, glock, coherence.ScopeGlobal, true)
				g := int(c.Load(gtop))
				for i, k := range rest {
					c.Store(gstack+mem.Addr(4*(g+i)), k)
				}
				c.Store(gtop, uint32(g+len(rest)))
				spinUnlock(c, glock, coherence.ScopeGlobal)
			}
		}
		popGlobal := func() []uint32 {
			spinLock(c, glock, coherence.ScopeGlobal, true)
			top := int(c.Load(gtop))
			n := min(p.Batch, top)
			keys := make([]uint32, 0, n)
			for i := 0; i < n; i++ {
				keys = append(keys, c.Load(gstack+mem.Addr(4*(top-1-i))))
			}
			if n > 0 {
				c.Store(gtop, uint32(top-n))
			}
			spinUnlock(c, glock, coherence.ScopeGlobal)
			return keys
		}

		for {
			keys := popLocal()
			if len(keys) == 0 {
				keys = popGlobal()
			}
			if len(keys) == 0 {
				flush()
				if c.AtomicLoad(pending, coherence.ScopeGlobal) == 0 {
					break
				}
				c.Wait(100)
				continue
			}
			var children []uint32
			for _, k := range keys {
				c.Compute(p.NodeWork)
				n := utsChildCount(k)
				for i := 0; i < n; i++ {
					children = append(children, utsChildKey(k, i))
				}
				delta += int32(n) - 1
				processed++
			}
			if len(children) > 0 {
				pushKeys(children)
			}
			flush()
		}
		// Record this block's work under the CU lock.
		spinLock(c, llock, coherence.ScopeLocal, true)
		c.Store(lprocessed[cu], c.Load(lprocessed[cu])+uint32(processed))
		spinUnlock(c, llock, coherence.ScopeLocal)
	}

	return workload.Workload{
		Name:     name,
		Input:    fmt.Sprintf("%d nodes", total),
		Category: devCategory(p.Devices, workload.LocalSync),
		Devices:  p.Devices,
		Host: func(h workload.Host) {
			// Seed: the root's children go to the global queue; the root
			// itself counts as processed by the host.
			for i := 0; i < p.RootChildren; i++ {
				h.Write(gstack+mem.Addr(4*i), utsChildKey(1, i))
			}
			h.Write(gtop, uint32(p.RootChildren))
			h.Write(pending, uint32(p.RootChildren))
			h.Launch(kernel, p.TBsPerCU*workers, p.Threads)
		},
		Verify: func(h workload.Host) error {
			sum := 1 // root, processed by the host at seed time
			for cu := 0; cu < workers; cu++ {
				sum += int(h.Read(lprocessed[cu]))
			}
			if sum != total {
				return fmt.Errorf(name+" processed %d nodes, want %d", sum, total)
			}
			if got := h.Read(pending); got != 0 {
				return fmt.Errorf(name+" pending = %d at end, want 0", got)
			}
			if got := h.Read(gtop); got != 0 {
				return fmt.Errorf(name+" global queue has %d leftovers", got)
			}
			return nil
		},
	}
}

func init() {
	workload.Register(UTS(UTSParams{}))
}
