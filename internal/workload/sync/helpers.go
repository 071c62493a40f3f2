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

// spinWait models the in-loop instruction overhead of a spin retry
// (loop condition, branch), with optional exponential backoff.
type spinWait struct {
	backoff bool
	delay   int
}

func newSpinWait(backoff bool) *spinWait { return &spinWait{backoff: backoff, delay: 8} }

func (s *spinWait) wait(c *workload.Ctx) {
	// A couple of loop instructions, then idle until the retry.
	c.Compute(2)
	c.Wait(s.delay)
	if s.backoff {
		s.delay = min(s.delay*2, 512)
	}
}

func (s *spinWait) reset() { s.delay = 8 }

// spinLock acquires a test-and-set mutex with a CAS loop.
func spinLock(c *workload.Ctx, lock mem.Addr, scope coherence.Scope, backoff bool) {
	s := newSpinWait(backoff)
	for c.AtomicCAS(lock, 0, 1, scope) != 0 {
		s.wait(c)
	}
}

// spinUnlock releases a test-and-set mutex with a release store.
func spinUnlock(c *workload.Ctx, lock mem.Addr, scope coherence.Scope) {
	c.AtomicStore(lock, 0, scope)
}

// sleepLock is the sleep mutex: failed attempts sleep for a fixed
// quantum rather than re-trying hot.
func sleepLock(c *workload.Ctx, lock mem.Addr, scope coherence.Scope) {
	for c.AtomicCAS(lock, 0, 1, scope) != 0 {
		c.Wait(200) // sleep quantum
	}
}

// faLock acquires a ticket (fetch-and-add) mutex; faUnlock passes the
// turn.
func faLock(c *workload.Ctx, ticket, turn mem.Addr, scope coherence.Scope, backoff bool) {
	my := c.AtomicAdd(ticket, 1, scope)
	s := newSpinWait(backoff)
	for c.AtomicLoad(turn, scope) != my {
		s.wait(c)
	}
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
