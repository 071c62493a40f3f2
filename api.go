// Package denovogpu is a simulator-backed reproduction of "Efficient
// GPU Synchronization without Scopes: Saying No to Complex Consistency
// Models" (Sinclair, Alsop, Adve — MICRO 2015).
//
// It models a tightly coupled CPU-GPU system (15 GPU CUs + 1 CPU core
// on a 4x4 mesh, private L1s, a 16-bank shared L2, per-CU scratchpads
// and store buffers) and lets you run workloads under the paper's five
// configurations:
//
//	GD     — conventional GPU coherence, DRF consistency
//	GH     — conventional GPU coherence, HRF consistency (scopes)
//	DD     — DeNovo coherence, DRF consistency
//	DD+RO  — DD plus the read-only region optimization
//	DH     — DeNovo coherence, HRF consistency
//
// A Run produces the paper's three measurements — execution time
// (cycles), dynamic energy by component, and network traffic in flit
// crossings by message class — plus diagnostic counters. Workloads are
// either the built-in benchmarks from the paper's Table 4 (see
// Workloads, WorkloadsByCategory) or custom kernels written against
// the device API (see RunKernel and the examples/ directory).
package denovogpu

import (
	"errors"
	"fmt"
	"sync"

	"denovogpu/internal/coherence"
	"denovogpu/internal/consistency"
	"denovogpu/internal/machine"
	"denovogpu/internal/mem"
	"denovogpu/internal/obs"
	"denovogpu/internal/runner"
	"denovogpu/internal/stats"
	"denovogpu/internal/workload"

	// Register all Table 4 benchmarks, plus the graph-analytics family.
	_ "denovogpu/internal/workload/apps"
	_ "denovogpu/internal/workload/graph"
	_ "denovogpu/internal/workload/sync"
)

// Config selects and parameterizes a simulated system. Obtain one from
// GD/GH/DD/DDRO/DH (the paper's configurations) or ConfigByName, then
// adjust fields if desired.
type Config = machine.Config

// The five configurations of the paper's Section 5.3.
var (
	GD   = machine.GD
	GH   = machine.GH
	DD   = machine.DD
	DDRO = machine.DDRO
	DH   = machine.DH
)

// AllConfigs returns the five paper configurations in figure order
// (GD, GH, DD, DD+RO, DH).
func AllConfigs() []Config { return machine.AllConfigs() }

// MESI is the extension configuration: conventional directory-based
// hardware coherence (Table 1's first row), which the paper classifies
// but does not evaluate.
var MESI = machine.MESI

// Specialized is the per-phase specialized extension configuration
// (Salvador et al.): DeNovo ownership for pull phases, writethrough
// coherence with L2-side relaxed atomics for push phases, with a
// phase-transition drain between differing kernels.
var Specialized = machine.Specialized

// ConfigByName resolves a configuration name ("GD", "GH", "DD",
// "DD+RO", "DH", or the extensions "MESI" and "SPEC"; case-sensitive).
func ConfigByName(name string) (Config, error) {
	// Each candidate is built fresh (no append onto a shared slice), so
	// every call hands the caller an independent Config value to mutate.
	for _, mk := range []func() Config{machine.GD, machine.GH, machine.DD, machine.DDRO, machine.DH, machine.MESI, machine.Specialized} {
		if c := mk(); c.Name() == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("denovogpu: unknown configuration %q (want GD, GH, DD, DD+RO, DH, MESI, or SPEC)", name)
}

// Addr is a byte address in the simulated unified address space.
type Addr = mem.Addr

// Scope is an HRF synchronization scope (ScopeGlobal or ScopeLocal).
type Scope = coherence.Scope

// Synchronization scopes. Under DRF configurations, ScopeLocal is
// treated as ScopeGlobal (the annotation is a hint DRF safely ignores).
const (
	ScopeGlobal = coherence.ScopeGlobal
	ScopeLocal  = coherence.ScopeLocal
)

// Consistency models.
const (
	DRF = consistency.DRF
	HRF = consistency.HRF
)

// Kernel is a GPU kernel body; see the workload device API (Ctx).
type Kernel = workload.Kernel

// Ctx is the per-thread-block context passed to kernels.
type Ctx = workload.Ctx

// Host is the CPU-side view used by workload drivers: kernel launches
// plus coherent functional memory access between kernels.
type Host = workload.Host

// Workload is a benchmark: a host driver plus a result verifier.
type Workload = workload.Workload

// Report is the outcome of one simulation run.
type Report struct {
	Config   string
	Workload string
	// Cycles is execution time in GPU cycles (700 MHz in Table 3).
	Cycles uint64
	// Events is the number of discrete-event callbacks the simulation
	// engine fired to produce this run — a determinism diagnostic (two
	// runs of the same workload and configuration must match exactly)
	// that cmd/bench -check gates per cell, and the numerator of
	// perfbench's simulated events per host second.
	Events uint64
	// EnergyPJ is dynamic energy split as in the paper's figures:
	// GPU core+, scratchpad, L1 D$, L2 $, network.
	EnergyPJ [stats.NumComponents]float64
	// Flits is network traffic in flit crossings split as in the
	// paper's figures: reads, registrations, WB/WT, atomics.
	Flits [stats.NumTrafficClasses]uint64
	// Stats exposes every diagnostic counter.
	Stats *stats.Stats
	// Timeline holds the epoch-sampled time-series metrics when the run
	// was observed with a sampler (RunObserved); nil otherwise.
	Timeline *obs.Series
}

// TotalEnergyPJ is the summed dynamic energy.
func (r Report) TotalEnergyPJ() float64 {
	var t float64
	for _, e := range r.EnergyPJ {
		t += e
	}
	return t
}

// TotalFlits is the summed network traffic.
func (r Report) TotalFlits() uint64 {
	var t uint64
	for _, f := range r.Flits {
		t += f
	}
	return t
}

// Workloads returns the names of all built-in benchmarks (Table 4).
func Workloads() []string { return workload.Names() }

// WorkloadByName returns a built-in benchmark.
func WorkloadByName(name string) (Workload, error) { return workload.Get(name) }

// WorkloadsByCategory returns the benchmarks of one of the paper's
// three groups.
func WorkloadsByCategory(c workload.Category) []Workload { return workload.ByCategory(c) }

// Benchmark categories (Figures 2, 3 and 4 respectively).
const (
	NoSync     = workload.NoSync
	GlobalSync = workload.GlobalSync
	LocalSync  = workload.LocalSync
	Graph      = workload.Graph
)

// Recorder is the observability event recorder (see internal/obs):
// create one with NewRecorder and pass it to RunObserved, then export
// the captured events with WriteChromeTrace or WriteText.
type Recorder = obs.Recorder

// Sampler is the observability epoch sampler capturing time-series
// metrics; create one with NewSampler and pass it to RunObserved.
type Sampler = obs.Sampler

// NewSampler returns an epoch sampler reading its gauges every `every`
// cycles (0 selects the default interval).
func NewSampler(every uint64) *Sampler { return obs.NewSampler(every) }

// NewRecorder returns an event recorder reading timestamps from clock,
// holding at most capacity events (<= 0 selects the default, 1M).
func NewRecorder(clock func() uint64, capacity int) *Recorder {
	return obs.NewRecorder(clock, capacity)
}

// Run simulates one built-in or custom workload under a configuration,
// verifies its result, and returns the measurements.
func Run(cfg Config, w Workload) (Report, error) {
	return RunObserved(cfg, w, nil, nil)
}

// RunObserved is Run with observability attached: a non-nil recorder
// captures the typed event trace (export with Recorder.WriteChromeTrace
// or Recorder.WriteText) and a non-nil sampler captures time-series
// metrics into Report.Timeline. Observability never perturbs the
// simulation: cycle and event counts are bit-identical to an
// unobserved run.
//
// The recorder needs the machine's clock, which does not exist until the
// machine is built, so rec is created by a callback receiving the clock.
// Pass obs.NewRecorder composed with the capacity of your choice:
//
//	var rec *denovogpu.Recorder
//	rep, err := denovogpu.RunObserved(cfg, w, func(clock func() uint64) *denovogpu.Recorder {
//		rec = denovogpu.NewRecorder(clock, 0)
//		return rec
//	}, nil)
//
// Observers are single-stream and bound to one machine: never attach
// the same Recorder or Sampler to two simulations that may run
// concurrently. RunMatrix enforces this and fails with
// ErrSharedObserver.
func RunObserved(cfg Config, w Workload, mkRec func(clock func() uint64) *Recorder, sampler *Sampler) (Report, error) {
	if err := w.CheckDevices(cfg.Devices); err != nil {
		return Report{}, fmt.Errorf("denovogpu: %w", err)
	}
	m := machine.New(cfg)
	var rec *Recorder
	if mkRec != nil {
		rec = mkRec(func() uint64 { return uint64(m.Engine().Now()) })
	}
	if rec != nil || sampler != nil {
		m.SetObservability(rec, sampler)
	}
	w.Host(m)
	if err := m.Err(); err != nil {
		return Report{}, fmt.Errorf("denovogpu: %s under %s: %w", w.Name, cfg.Name(), err)
	}
	if w.Verify != nil {
		if err := w.Verify(m); err != nil {
			return Report{}, fmt.Errorf("denovogpu: %s under %s: verification failed: %w", w.Name, cfg.Name(), err)
		}
	}
	st := m.Stats()
	rep := Report{
		Config:   cfg.Name(),
		Workload: w.Name,
		Cycles:   st.Cycles,
		Events:   m.Engine().Fired(),
		EnergyPJ: st.EnergyPJ,
		Flits:    st.Flits,
		Stats:    st,
	}
	if sampler != nil {
		rep.Timeline = sampler.Series()
	}
	return rep, nil
}

// MatrixCell is one (configuration, workload) pair of a run matrix.
type MatrixCell struct {
	Config   Config
	Workload Workload
	// MkRec and Sampler optionally attach per-cell observability, with
	// RunObserved semantics. Observers are single-stream and bound to
	// one machine: every cell must get its OWN instances. RunMatrix
	// enforces this — a Sampler attached to two cells fails the whole
	// matrix with ErrSharedObserver before anything runs, and an MkRec
	// that returns the same Recorder for a second cell fails that cell
	// with ErrSharedObserver (the cell executes unobserved, so the
	// shared recorder is never mutated concurrently).
	MkRec   func(clock func() uint64) *Recorder
	Sampler *Sampler
}

// MatrixResult is the outcome of one matrix cell, in cell order.
type MatrixResult struct {
	Report Report
	Err    error
}

// MatrixOptions configure RunMatrix.
type MatrixOptions struct {
	// Workers bounds the number of cells simulating concurrently; <= 0
	// selects runtime.GOMAXPROCS(0). Workers == 1 reproduces the serial
	// loop exactly, including execution order.
	Workers int
	// KeepGoing runs every cell even after failures. Otherwise the
	// first failure stops dispatch: in-flight cells finish, unstarted
	// cells get ErrCellSkipped.
	KeepGoing bool
	// Progress, if non-nil, streams per-cell completion (index + error)
	// in completion order; calls are serialized by the pool.
	Progress func(i int, err error)
}

// ErrSharedObserver is the typed error returned when one Recorder or
// Sampler instance is attached to more than one cell of a matrix run.
// Observers are single-stream: sharing one across concurrently
// executing simulations would interleave unrelated machines' events.
var ErrSharedObserver = errors.New("denovogpu: Recorder/Sampler shared across matrix cells")

// ErrCellSkipped marks a cell that never ran because an earlier cell
// failed (and MatrixOptions.KeepGoing was off).
var ErrCellSkipped = runner.ErrSkipped

// Matrix builds the config-major cell list for configs × workloads:
// every workload under configs[0], then under configs[1], and so on —
// the order bench, sweep and the figures pipeline report in.
func Matrix(configs []Config, workloads []Workload) []MatrixCell {
	cells := make([]MatrixCell, 0, len(configs)*len(workloads))
	for _, cfg := range configs {
		for _, w := range workloads {
			cells = append(cells, MatrixCell{Config: cfg, Workload: w})
		}
	}
	return cells
}

// RunMatrix simulates every cell on a bounded worker pool and returns
// the per-cell results in cell order (deterministic regardless of
// completion order; the paper-figure convention is config-major — see
// Matrix). Each cell builds its own machine, so cells share no mutable
// state and per-cell Reports are bit-identical at any worker count.
// The returned error is the first cell error by index, or nil.
func RunMatrix(cells []MatrixCell, opts MatrixOptions) ([]MatrixResult, error) {
	// Shared samplers are detectable before anything runs.
	samplers := make(map[*Sampler]int)
	for i, c := range cells {
		if c.Sampler == nil {
			continue
		}
		if j, dup := samplers[c.Sampler]; dup {
			return nil, fmt.Errorf("%w: cells %d and %d share a Sampler", ErrSharedObserver, j, i)
		}
		samplers[c.Sampler] = i
	}

	results := make([]MatrixResult, len(cells))
	var recMu sync.Mutex
	recSeen := make(map[*Recorder]int)
	errs, err := runner.Run(len(cells), runner.Options{
		Workers:   opts.Workers,
		KeepGoing: opts.KeepGoing,
		OnDone:    opts.Progress,
	}, func(i int) error {
		cell := cells[i]
		mkRec := cell.MkRec
		sharedWith := -1
		if mkRec != nil {
			inner := mkRec
			mkRec = func(clock func() uint64) *Recorder {
				rec := inner(clock)
				if rec == nil {
					return nil
				}
				recMu.Lock()
				j, dup := recSeen[rec]
				if !dup {
					recSeen[rec] = i
				}
				recMu.Unlock()
				if dup {
					// Run this cell unobserved rather than racing two
					// machines into one recorder; the cell still fails
					// below so the misuse is loud.
					sharedWith = j
					return nil
				}
				return rec
			}
		}
		rep, err := RunObserved(cell.Config, cell.Workload, mkRec, cell.Sampler)
		if err == nil && sharedWith >= 0 {
			err = fmt.Errorf("%w: cells %d and %d share a Recorder", ErrSharedObserver, sharedWith, i)
		}
		results[i] = MatrixResult{Report: rep, Err: err}
		return err
	})
	// Skips happen at the pool level (the cell fn never ran); fold them
	// into the per-cell results.
	for i, e := range errs {
		if errors.Is(e, runner.ErrSkipped) {
			results[i].Err = ErrCellSkipped
		}
	}
	return results, err
}

// RunByName runs a built-in benchmark by Table 4 name.
func RunByName(cfg Config, name string) (Report, error) {
	w, err := workload.Get(name)
	if err != nil {
		return Report{}, err
	}
	return Run(cfg, w)
}

// RunKernel is the quickest path for custom code: it runs a single
// kernel (with optional setup/verify host hooks) under a configuration.
func RunKernel(cfg Config, name string, k Kernel, numTBs, threadsPerTB int, setup func(Host), verify func(Host) error) (Report, error) {
	return Run(cfg, Workload{
		Name: name,
		Host: func(h Host) {
			if setup != nil {
				setup(h)
			}
			h.Launch(k, numTBs, threadsPerTB)
		},
		Verify: verify,
	})
}
