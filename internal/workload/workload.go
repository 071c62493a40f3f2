package workload

import (
	"fmt"
	"sort"

	"denovogpu/internal/mem"
)

// Host is what a workload's driver (the CPU side) sees: kernel launch
// plus functional coherent memory access between kernels. The machine
// package implements it.
type Host interface {
	// Launch runs a kernel over numTBs thread blocks of threadsPerTB
	// threads, returning after the kernel (and its boundary release)
	// completes in simulated time.
	Launch(k Kernel, numTBs, threadsPerTB int)
	// LaunchPhase is Launch with a kernel-phase label (PhasePush,
	// PhasePull) so the machine can specialize the coherence protocol
	// per phase (machine.Config.Phases). An unlisted or empty phase
	// runs under the base protocol.
	LaunchPhase(phase string, k Kernel, numTBs, threadsPerTB int)
	// Read performs an untimed coherent read (between kernels).
	Read(a mem.Addr) uint32
	// Write performs an untimed coherent write (between kernels).
	Write(a mem.Addr, v uint32)
	// WriteWords writes vals to the contiguous words starting at base:
	// the same effect as one Write per word, as one call (host-side
	// input seeding).
	WriteWords(base mem.Addr, vals []uint32)
	// SetReadOnly declares [lo, hi) read-only for DeNovo's DD+RO
	// selective invalidation. The declaration is hardware-agnostic
	// program information: configurations without the optimization
	// ignore it.
	SetReadOnly(lo, hi mem.Addr)
	// ClearReadOnly revokes all read-only declarations; required before
	// the host writes a previously declared range.
	ClearReadOnly()
	// NumCUs returns the number of GPU compute units.
	NumCUs() int
}

// Canonical kernel-phase labels for per-phase protocol specialization.
// A "push" kernel scatters updates with relaxed atomics (writethrough
// friendly); a "pull" kernel streams reads and issues plain stores to
// data it will reuse (ownership friendly).
const (
	PhasePush = "push"
	PhasePull = "pull"
)

// Category groups benchmarks the way the paper's evaluation does.
type Category int

const (
	// NoSync: traditional GPU applications with no intra-kernel
	// synchronization (Figure 2).
	NoSync Category = iota
	// GlobalSync: microbenchmarks with only globally scoped
	// fine-grained synchronization (Figure 3).
	GlobalSync
	// LocalSync: microbenchmarks with mostly locally scoped or hybrid
	// synchronization (Figure 4).
	LocalSync
	// Graph: irregular graph-analytics workloads with per-kernel-phase
	// protocol specialization (beyond the paper; Salvador et al.).
	Graph
	// MultiDev: multi-device ports of the synchronization suite (beyond
	// the paper): the same algorithms sized for N devices' worth of CUs,
	// to be run on an N-device machine (Config.Devices) where their
	// global synchronization crosses the inter-device link.
	MultiDev
)

func (c Category) String() string {
	switch c {
	case NoSync:
		return "no-sync"
	case GlobalSync:
		return "global-sync"
	case LocalSync:
		return "local-sync"
	case Graph:
		return "graph"
	case MultiDev:
		return "multi-device"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Workload is one benchmark: a host driver that allocates memory,
// launches kernels, and a verifier that checks the final memory state
// against the algorithm's specification (the simulator is functional,
// so every run computes real results).
type Workload struct {
	// Name is the paper's benchmark name (Table 4), e.g. "FAM_G".
	Name string
	// Input describes the input size, as in Table 4.
	Input string
	// Category places the benchmark in Figure 2, 3, or 4.
	Category Category
	// Devices is the device count the grid is sized for (0 means 1).
	// On fewer devices a global barrier would wait forever for thread
	// blocks that never become resident.
	Devices int
	// Host drives the benchmark.
	Host func(h Host)
	// Verify checks the final state; nil error means correct.
	Verify func(h Host) error
}

// CheckDevices rejects a machine of the given device count (0 means 1)
// that is smaller than the one w is sized for.
func (w Workload) CheckDevices(devices int) error {
	if w.Devices > max(devices, 1) {
		return fmt.Errorf("workload: %s is sized for %d devices, the machine has %d", w.Name, w.Devices, max(devices, 1))
	}
	return nil
}

// Arena is a bump allocator for carving a workload's address space.
// Allocations are line aligned and never share a cache line with each
// other, so unrelated data structures never exhibit false sharing.
type Arena struct{ next mem.Addr }

// NewArena starts allocating at a fixed base.
func NewArena() *Arena { return &Arena{next: 0x10_0000} }

// Words reserves n words and returns the address of the first.
func (a *Arena) Words(n int) mem.Addr {
	addr := a.next
	bytes := mem.Addr((n*mem.WordBytes + mem.LineBytes - 1) / mem.LineBytes * mem.LineBytes)
	a.next += bytes
	return addr
}

// Line reserves a single line (for locks, counters, flags).
func (a *Arena) Line() mem.Addr { return a.Words(mem.WordsPerLine) }

// ReadSlice reads n words at base (host-side, untimed).
func ReadSlice(h Host, base mem.Addr, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = h.Read(base + mem.Addr(4*i))
	}
	return out
}

var registry = make(map[string]Workload)

// Register adds a workload to the global registry; it panics on
// duplicate names (a build-time bug).
func Register(w Workload) {
	if _, dup := registry[w.Name]; dup {
		panic(fmt.Sprintf("workload: duplicate %q", w.Name))
	}
	registry[w.Name] = w
}

// Get returns a registered workload.
func Get(name string) (Workload, error) {
	w, ok := registry[name]
	if !ok {
		return Workload{}, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
	}
	return w, nil
}

// Names returns all registered workload names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ByCategory returns the workloads of one category in registration
// name order.
func ByCategory(c Category) []Workload {
	var out []Workload
	for _, n := range Names() {
		if registry[n].Category == c {
			out = append(out, registry[n])
		}
	}
	return out
}
