// Package syncbench implements the fine-grained synchronization
// microbenchmarks of the paper's Table 4: fetch-and-add, sleep, and
// spin mutexes (with and without backoff) in globally and locally
// scoped variants, reader-writer spin semaphores, two-level tree
// barriers, and the Unbalanced Tree Search benchmark.
//
// All follow the paper's parameters: 3 thread blocks per CU, 100
// iterations per thread block per kernel, 10 loads & stores per thread
// per iteration (readers 10 loads, writers 20 stores for the
// semaphores). Scope annotations ("_L" variants) matter only under the
// HRF configurations; under DRF they are ignored.
package syncbench

import (
	"fmt"

	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
	"denovogpu/internal/workload"
)

// Paper defaults (Table 4).
const (
	DefaultTBsPerCU = 3
	DefaultIters    = 100
	DefaultAccesses = 10
	DefaultThreads  = 32
)

// devSuffix names a multi-device variant ("x2"), mirroring
// machine.Config.Name: the empty suffix is the paper's single-device
// benchmark.
func devSuffix(devices int) string {
	if devices > 1 {
		return fmt.Sprintf("x%d", devices)
	}
	return ""
}

// devCategory demotes a multi-device variant out of its Table 4
// figure group: the paper's figures hold only single-device runs.
func devCategory(devices int, single workload.Category) workload.Category {
	if devices > 1 {
		return workload.MultiDev
	}
	return single
}

// A failed spin attempt spends a couple of loop instructions (loop
// condition, branch), then idles before the retry; with backoff the idle
// time doubles per retry, up to 512 cycles (workload.Spin.Backoff).
const (
	spinCompute = 2
	spinDelay   = 8
)

// spinLoad spins on an acquire load of a until the value passes cmp
// against v.
func spinLoad(c *workload.Ctx, a mem.Addr, scope coherence.Scope, cmp workload.Cmp, v uint32, backoff bool) {
	c.SpinAtomic(&workload.Spin{
		Op: coherence.AtomicLoad, Addr: a, Scope: scope,
		Cmp: cmp, Value: v, Compute: spinCompute, Delay: spinDelay, Backoff: backoff,
	})
}

// lockCAS is the test-and-set attempt: CAS 0 -> 1 until it returns 0.
func lockCAS(lock mem.Addr, scope coherence.Scope) workload.Spin {
	return workload.Spin{
		Op: coherence.AtomicCAS, Addr: lock, Operand: 1, Operand2: 0, Scope: scope,
		Cmp: workload.CmpEq, Value: 0,
	}
}

// spinLock acquires a test-and-set mutex with a CAS loop.
func spinLock(c *workload.Ctx, lock mem.Addr, scope coherence.Scope, backoff bool) {
	s := lockCAS(lock, scope)
	s.Compute, s.Delay, s.Backoff = spinCompute, spinDelay, backoff
	c.SpinAtomic(&s)
}

// spinUnlock releases a test-and-set mutex with a release store.
func spinUnlock(c *workload.Ctx, lock mem.Addr, scope coherence.Scope) {
	c.AtomicStore(lock, 0, scope)
}

// sleepLock is the sleep mutex: failed attempts sleep for a fixed
// quantum rather than re-trying hot.
func sleepLock(c *workload.Ctx, lock mem.Addr, scope coherence.Scope) {
	s := lockCAS(lock, scope)
	s.Delay = 200 // sleep quantum
	c.SpinAtomic(&s)
}

// faLock acquires a ticket (fetch-and-add) mutex; faUnlock passes the
// turn.
func faLock(c *workload.Ctx, ticket, turn mem.Addr, scope coherence.Scope, backoff bool) {
	my := c.AtomicAdd(ticket, 1, scope)
	spinLoad(c, turn, scope, workload.CmpEq, my, backoff)
}

func faUnlock(c *workload.Ctx, turn mem.Addr, scope coherence.Scope) {
	c.AtomicAdd(turn, 1, scope)
}

// criticalSection performs the paper's per-iteration data accesses:
// `accesses` loads and stores per thread, coalesced (thread t touches
// data[j*threads + t]), incrementing each word so verification can
// count critical sections exactly. v is the block's load buffer,
// reused by every access.
func criticalSection(c *workload.Ctx, data mem.Addr, accesses int, v []uint32) {
	for j := 0; j < accesses; j++ {
		base := data + mem.Addr(4*j*c.Threads)
		v = c.LoadStrideInto(v, base)
		for i := range v {
			v[i]++
		}
		c.StoreStride(base, v)
	}
}

// expectData verifies that every word of a criticalSection region was
// incremented exactly n times.
func expectData(h workload.Host, data mem.Addr, words int, n uint32, what string) error {
	for i := 0; i < words; i++ {
		if got := h.Read(data + mem.Addr(4*i)); got != n {
			return fmt.Errorf("%s word %d = %d, want %d", what, i, got, n)
		}
	}
	return nil
}
