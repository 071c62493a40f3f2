// Package workload defines the device programming API that benchmark
// kernels are written against, and the registry of all benchmarks from
// the paper's Table 4.
//
// Kernels execute as SIMT lockstep vector code at thread-block
// granularity: every memory operation supplies one address per thread
// (or uses the scalar forms, which model "thread 0 does X" idioms from
// the original microbenchmarks). The GPU timing model coalesces each
// vector access into per-warp line accesses, exactly as the simulated
// hardware would.
package workload

import (
	"denovogpu/internal/coherence"
	"denovogpu/internal/mem"
)

// Executor is the backend a kernel's context drives; the GPU package
// implements it with the CU timing model.
type Executor interface {
	// Vec performs a vector memory operation: loads (one address per
	// active lane) and/or stores. The loaded values land in dst, which
	// the caller owns and sizes len(loads), indexed like loads.
	Vec(loads []mem.Addr, stores []mem.Addr, storeVals []uint32, dst []uint32)
	// Atomic performs a scalar synchronization access.
	Atomic(op coherence.AtomicOp, a mem.Addr, operand, operand2 uint32, order coherence.Order, scope coherence.Scope) uint32
	// Spin retries s's atomic until the value it returns passes s's
	// exit test and returns that value. After each failed attempt it
	// spends s.Compute, then s.Delay, then backs off; it also returns
	// the next retry's delay.
	Spin(s Spin) (v uint32, delay int)
	// Compute models n cycles of ALU work.
	Compute(n int)
	// Wait models n cycles of idle waiting (spin backoff, sleep): time
	// passes but the warp issues no instructions, so no instruction
	// energy is charged.
	Wait(n int)
	// Scratch models n scratchpad accesses.
	Scratch(n int)
}

// Kernel is a GPU kernel body, executed once per thread block.
type Kernel func(c *Ctx)

// Ctx is the per-thread-block execution context handed to kernels.
type Ctx struct {
	// TB is this thread block's index within the grid.
	TB int
	// NumTBs is the grid size in thread blocks.
	NumTBs int
	// Threads is the number of threads in this block.
	Threads int
	// CU is the compute unit executing this block.
	CU int
	// NumCUs is the number of compute units in the machine.
	NumCUs int

	Ex Executor

	// Scalar-access scratch, reused across Load/Store calls. Safe
	// because Vec completes synchronously before returning, so the
	// executor never retains these past the call.
	ldScratch [1]mem.Addr
	lvScratch [1]uint32
	stScratch [1]mem.Addr
	svScratch [1]uint32
	// addrScratch backs StrideAddrs, reused across calls for the same
	// reason.
	addrScratch []mem.Addr
}

// Load reads one word (a scalar, thread-0 access).
func (c *Ctx) Load(a mem.Addr) uint32 {
	c.ldScratch[0] = a
	c.Ex.Vec(c.ldScratch[:], nil, nil, c.lvScratch[:])
	return c.lvScratch[0]
}

// Store writes one word (a scalar, thread-0 access).
func (c *Ctx) Store(a mem.Addr, v uint32) {
	c.stScratch[0] = a
	c.svScratch[0] = v
	c.Ex.Vec(nil, c.stScratch[:], c.svScratch[:], nil)
}

// LoadInto reads one word per thread into dst, resliced to len(addrs)
// and grown only if its capacity is short, and returns it. A kernel
// that keeps one buffer per live result loads without allocating: a
// store copies its values at issue, and Vec returns only once the load
// has retired, so dst may be reused by the next instruction as soon as
// the kernel has no further read of its old values.
func (c *Ctx) LoadInto(dst []uint32, addrs []mem.Addr) []uint32 {
	if cap(dst) < len(addrs) {
		dst = make([]uint32, len(addrs))
	}
	dst = dst[:len(addrs)]
	c.Ex.Vec(addrs, nil, nil, dst)
	return dst
}

// LoadV reads one word per thread into a fresh slice the kernel owns.
func (c *Ctx) LoadV(addrs []mem.Addr) []uint32 {
	return c.LoadInto(make([]uint32, len(addrs)), addrs)
}

// StoreV writes one word per thread.
func (c *Ctx) StoreV(addrs []mem.Addr, vals []uint32) {
	c.Ex.Vec(nil, addrs, vals, nil)
}

// StrideAddrs returns the addresses thread i = base + 4*i*stride words,
// one per thread — the canonical coalesced access. The returned slice
// is the context's reusable scratch: it is valid until the next
// StrideAddrs call, which is enough for the load/store it feeds (Vec
// consumes the addresses before returning).
func (c *Ctx) StrideAddrs(base mem.Addr, stride int) []mem.Addr {
	if cap(c.addrScratch) < c.Threads {
		c.addrScratch = make([]mem.Addr, c.Threads)
	}
	addrs := c.addrScratch[:c.Threads]
	for i := range addrs {
		addrs[i] = base + mem.Addr(i*stride*mem.WordBytes)
	}
	return addrs
}

// LoadStrideInto loads thread-contiguous words starting at base into
// dst, with LoadInto's reuse rules.
func (c *Ctx) LoadStrideInto(dst []uint32, base mem.Addr) []uint32 {
	return c.LoadInto(dst, c.StrideAddrs(base, 1))
}

// LoadStride loads thread-contiguous words starting at base into a
// fresh slice the kernel owns.
func (c *Ctx) LoadStride(base mem.Addr) []uint32 {
	return c.LoadV(c.StrideAddrs(base, 1))
}

// StoreStride stores thread-contiguous words starting at base.
func (c *Ctx) StoreStride(base mem.Addr, vals []uint32) {
	c.StoreV(c.StrideAddrs(base, 1), vals)
}

// Compute models n cycles of per-warp ALU work.
func (c *Ctx) Compute(n int) { c.Ex.Compute(n) }

// Wait models n cycles of idle waiting (backoff, sleep quantum).
func (c *Ctx) Wait(n int) { c.Ex.Wait(n) }

// Scratch models n scratchpad accesses.
func (c *Ctx) Scratch(n int) { c.Ex.Scratch(n) }

// Synchronization accesses. Following the DRF/HRF conventions (and the
// paper's ban on relaxed atomics), a sync read is an acquire, a sync
// write is a release, and RMWs are both.

// AtomicLoad is a synchronization read (acquire).
func (c *Ctx) AtomicLoad(a mem.Addr, s coherence.Scope) uint32 {
	return c.Ex.Atomic(coherence.AtomicLoad, a, 0, 0, coherence.OrderAcquire, s)
}

// AtomicStore is a synchronization write (release).
func (c *Ctx) AtomicStore(a mem.Addr, v uint32, s coherence.Scope) {
	c.Ex.Atomic(coherence.AtomicStore, a, v, 0, coherence.OrderRelease, s)
}

// AtomicAdd is a fetch-and-add (acquire+release).
func (c *Ctx) AtomicAdd(a mem.Addr, v uint32, s coherence.Scope) uint32 {
	return c.Ex.Atomic(coherence.AtomicAdd, a, v, 0, coherence.OrderAcqRel, s)
}

// AtomicCAS stores newV if the current value is oldV, returning the
// prior value (acquire+release).
func (c *Ctx) AtomicCAS(a mem.Addr, oldV, newV uint32, s coherence.Scope) uint32 {
	return c.Ex.Atomic(coherence.AtomicCAS, a, newV, oldV, coherence.OrderAcqRel, s)
}

// AtomicExch swaps in v, returning the prior value (acquire+release).
func (c *Ctx) AtomicExch(a mem.Addr, v uint32, s coherence.Scope) uint32 {
	return c.Ex.Atomic(coherence.AtomicExch, a, v, 0, coherence.OrderAcqRel, s)
}

// Cmp is a spin's exit test: the value v an attempt returns passes
// when "v Cmp Value" holds.
type Cmp uint8

const (
	CmpEq Cmp = iota // v == Value
	CmpGt            // v > Value
	CmpGe            // v >= Value
)

// maxSpinDelay caps a backed-off spin's Delay.
const maxSpinDelay = 512

// Spin is one spin loop, declared rather than written out: the atomic
// is retried until the value it returns passes the exit test. It is
// the shape of every Stuart–Owens primitive: test-and-set, sleep and
// ticket mutexes, barrier sense spins and the semaphore's count spin.
//
// The exit test may depend only on the value the attempt returned,
// never on anything the kernel computes between attempts, so the
// executor can retry the atomic without handing control back to the
// kernel.
type Spin struct {
	// The atomic, as Ctx.Atomic* would issue it: a load or an RMW,
	// with the memory order Order derives from Op.
	Op       coherence.AtomicOp
	Addr     mem.Addr
	Operand  uint32
	Operand2 uint32
	Scope    coherence.Scope

	// The exit test.
	Cmp   Cmp
	Value uint32

	// The timing of a failed attempt: Compute cycles of loop
	// instructions, then Delay idle cycles before the retry. With
	// Backoff, Delay doubles after each retry, up to 512.
	Compute int
	Delay   int
	Backoff bool
}

// Pass reports whether v passes the exit test.
func (s *Spin) Pass(v uint32) bool {
	switch s.Cmp {
	case CmpEq:
		return v == s.Value
	case CmpGt:
		return v > s.Value
	case CmpGe:
		return v >= s.Value
	}
	panic("workload: invalid spin Cmp")
}

// Order is the memory order of the spin's atomic, fixed by Op as
// Ctx's atomics fix theirs: a load acquires, an RMW acquires and
// releases.
func (s *Spin) Order() coherence.Order {
	if s.Op == coherence.AtomicLoad {
		return coherence.OrderAcquire
	}
	return coherence.OrderAcqRel
}

// BackOff advances Delay to the next retry's.
func (s *Spin) BackOff() {
	if s.Backoff {
		s.Delay = min(s.Delay*2, maxSpinDelay)
	}
}

// SpinAtomic runs the spin s and returns the value that passed its
// exit test. It leaves s.Delay at the delay the next retry would have
// waited, so a primitive whose acquire needs a second atomic (the
// semaphore's CAS after its count spin) keeps backing off across it
// with SpinPause.
func (c *Ctx) SpinAtomic(s *Spin) uint32 {
	v, delay := c.Ex.Spin(*s)
	s.Delay = delay
	return v
}

// SpinPause spends one failed attempt of s — s.Compute, then s.Delay
// idle cycles — and backs off.
func (c *Ctx) SpinPause(s *Spin) {
	c.Compute(s.Compute)
	c.Wait(s.Delay)
	s.BackOff()
}

// Relaxed atomics (beyond the paper; Salvador et al.'s graph-analytics
// extension). The RMW itself is indivisible, but it carries no
// acquire/release ordering: no invalidation before subsequent accesses
// and no store-buffer flush of prior writes. They are the accumulation
// primitive of the push-phase graph kernels, where the only property
// the algorithm needs is atomicity of the commutative update.

// AtomicAddRelaxed is a relaxed fetch-and-add.
func (c *Ctx) AtomicAddRelaxed(a mem.Addr, v uint32, s coherence.Scope) uint32 {
	return c.Ex.Atomic(coherence.AtomicAdd, a, v, 0, coherence.OrderRelaxed, s)
}

// AtomicMinRelaxed is a relaxed fetch-and-min.
func (c *Ctx) AtomicMinRelaxed(a mem.Addr, v uint32, s coherence.Scope) uint32 {
	return c.Ex.Atomic(coherence.AtomicMin, a, v, 0, coherence.OrderRelaxed, s)
}

// AtomicExchRelaxed is a relaxed exchange (flag raising).
func (c *Ctx) AtomicExchRelaxed(a mem.Addr, v uint32, s coherence.Scope) uint32 {
	return c.Ex.Atomic(coherence.AtomicExch, a, v, 0, coherence.OrderRelaxed, s)
}
