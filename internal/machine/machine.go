// Package machine assembles the full simulated system — engine, mesh,
// L2 banks, per-CU L1 controllers under the configured protocol, and
// the CUs — and runs workloads on it, producing the measurements the
// paper reports.
package machine

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"denovogpu/internal/coherence"
	"denovogpu/internal/consistency"
	"denovogpu/internal/denovo"
	"denovogpu/internal/energy"
	"denovogpu/internal/gpu"
	"denovogpu/internal/gpucoh"
	"denovogpu/internal/interconnect"
	"denovogpu/internal/l2"
	"denovogpu/internal/mem"
	"denovogpu/internal/noc"
	"denovogpu/internal/obs"
	"denovogpu/internal/sim"
	"denovogpu/internal/stats"
	"denovogpu/internal/topology"
	"denovogpu/internal/workload"
)

// Protocol selects the coherence protocol.
type Protocol int

const (
	// ProtoGPU is conventional GPU (writethrough) coherence.
	ProtoGPU Protocol = iota
	// ProtoDeNovo is the DeNovo hybrid protocol.
	ProtoDeNovo
)

func (p Protocol) String() string {
	switch p {
	case ProtoDeNovo:
		return "DeNovo"
	default:
		return "GPU"
	}
}

// Config describes one simulated system (paper Table 3 defaults).
type Config struct {
	Protocol Protocol
	Model    consistency.Model
	// Devices is the number of GPU devices (default 1, the paper's
	// machine). Each device gets its own NumCUs CUs, L1 set, L2 bank
	// slice, and mesh domain; the devices are joined by the
	// inter-device link modeled in internal/interconnect, and memory
	// lines interleave their home registry banks across devices (see
	// topology.Desc.HomeNode).
	Devices int
	// ReadOnlyOpt enables DeNovo's read-only region optimization (DD+RO).
	ReadOnlyOpt bool
	// LazyWrites delays DeNovo data-write registration to the next
	// global release (part of DH).
	LazyWrites bool
	// Invariants arms the protocol invariant sanitizer: controllers gain
	// hot-path assertions (DeNovo's lazy-reg-exclusive, GPU coherence's
	// wt-balance) and CheckInvariants extends its always-on registry
	// walk with per-controller quiesced-state suites after every kernel.
	// The checks observe state without scheduling events or touching
	// counters, so an armed run produces byte-identical reports; they
	// cost nothing when off. The litmus harness and `litmus check`
	// counterexample replay arm it unconditionally; denovosim exposes it
	// as -invariants.
	Invariants bool
	// FaultDisableAcquireInval is a test-only fault-injection knob: it
	// makes globally scoped acquires skip their self-invalidation in the
	// GPU and DeNovo protocols, deliberately breaking the consistency
	// contract. The litmus conformance harness (internal/litmus) uses it
	// to prove it can detect and shrink real consistency bugs. Never set
	// it outside tests.
	FaultDisableAcquireInval bool

	// Phases maps kernel-phase labels (workload.PhasePush/PhasePull) to
	// the protocol and consistency model that phase's kernels run under
	// (beyond the paper; Salvador et al.'s per-phase specialization).
	// Kernels launched through LaunchPhase with an unlisted or empty
	// label run under the base Protocol/Model. Between two kernels whose
	// selections differ, the machine performs a phase-transition drain:
	// it quiesces the outgoing L1 set, retires every DeNovo registration
	// back to the registry, invalidates the outgoing caches, and only
	// then moves the CUs onto the incoming set (see DESIGN.md).
	Phases map[string]PhaseProto
	// PhaseDrainCycles is the simulated cost of one phase-transition
	// drain (store-buffer quiesce, registry walk, flash invalidation).
	PhaseDrainCycles int

	NumCUs         int
	MaxResidentTBs int
	L1Bytes        int
	L1Ways         int
	SBEntries      int
	// LaunchOverheadCycles models kernel-dispatch cost.
	LaunchOverheadCycles int
	// HorizonCycles aborts hung simulations.
	HorizonCycles uint64
}

// Defaults fills zero fields with the paper's parameters.
func (c Config) Defaults() Config {
	if c.Devices == 0 {
		c.Devices = 1
	}
	if c.NumCUs == 0 {
		c.NumCUs = 15
	}
	if c.MaxResidentTBs == 0 {
		c.MaxResidentTBs = 3
	}
	if c.L1Bytes == 0 {
		c.L1Bytes = 32 * 1024
	}
	if c.L1Ways == 0 {
		c.L1Ways = 8
	}
	if c.SBEntries == 0 {
		c.SBEntries = 256
	}
	if c.LaunchOverheadCycles == 0 {
		c.LaunchOverheadCycles = 300
	}
	if c.PhaseDrainCycles == 0 {
		// Half a kernel dispatch: the previous kernel's boundary release
		// already emptied every store buffer and MSHR (Launch asserts it),
		// so the drain is the command processor walking the registry and
		// reprogramming the L1 set, not waiting out in-flight traffic.
		c.PhaseDrainCycles = 150
	}
	if c.HorizonCycles == 0 {
		c.HorizonCycles = 5_000_000_000
	}
	return c
}

// Validate rejects exactly the shapes New cannot build (New panics on
// them), so callers taking a Config from users can refuse it before
// running anything. Zero fields take their Defaults first, as in New.
// The shapes are: fewer than one device, or more than the L2 registry
// has owner ids for (2,048); fewer than one or more than
// noc.Nodes CUs per device; an unknown protocol, as the base or in a
// phase; a negative store-buffer size; and an L1 geometry whose set
// count is not a positive power of two.
func (c Config) Validate() error {
	c = c.Defaults()
	known := func(p Protocol) bool { return p == ProtoGPU || p == ProtoDeNovo }
	switch {
	case c.Devices < 1:
		return fmt.Errorf("machine: %d devices (want >= 1)", c.Devices)
	case c.Devices > l2.MaxNodes/noc.Nodes:
		return fmt.Errorf("machine: %d devices (want at most %d: the L2 registry holds %d node ids)", c.Devices, l2.MaxNodes/noc.Nodes, l2.MaxNodes)
	case c.NumCUs < 1 || c.NumCUs > noc.Nodes:
		return fmt.Errorf("machine: %d CUs per device (want 1..%d)", c.NumCUs, noc.Nodes)
	case !known(c.Protocol):
		return fmt.Errorf("machine: unknown protocol %d", c.Protocol)
	case c.L1Ways < 1:
		return fmt.Errorf("machine: %d L1 ways (want >= 1)", c.L1Ways)
	case c.SBEntries < 0:
		return fmt.Errorf("machine: %d store-buffer entries (want >= 0)", c.SBEntries)
	}
	for _, p := range slices.Sorted(maps.Keys(c.Phases)) {
		if pp := c.Phases[p]; !known(pp.Protocol) {
			return fmt.Errorf("machine: phase %q selects unknown protocol %d", p, pp.Protocol)
		}
	}
	if sets := c.L1Bytes / mem.LineBytes / c.L1Ways; sets < 1 || sets&(sets-1) != 0 {
		return fmt.Errorf("machine: L1 of %d bytes in %d ways has %d sets (want a power of two)", c.L1Bytes, c.L1Ways, sets)
	}
	return nil
}

// PhaseProto selects the coherence protocol and consistency model one
// named kernel phase runs under (Config.Phases).
type PhaseProto struct {
	Protocol Protocol
	Model    consistency.Model
}

// Name returns the paper's abbreviation for the configuration (GD, GH,
// DD, DD+RO, DH) when it matches one, "SPEC" for the canonical
// per-phase specialized configuration, or a descriptive string. A
// multi-device configuration appends "xN" (e.g. "DDx2").
func (c Config) Name() string {
	name := c.singleName()
	if c.Devices > 1 {
		name += fmt.Sprintf("x%d", c.Devices)
	}
	return name
}

// singleName is Name without the device-count suffix.
func (c Config) singleName() string {
	base := c.baseName()
	if len(c.Phases) == 0 {
		return base
	}
	if c.isSpecialized() {
		return "SPEC"
	}
	s := base + "+phased["
	for i, p := range slices.Sorted(maps.Keys(c.Phases)) {
		if i > 0 {
			s += " "
		}
		pp := c.Phases[p]
		s += fmt.Sprintf("%s:%s", p, Config{Protocol: pp.Protocol, Model: pp.Model}.baseName())
	}
	return s + "]"
}

// isSpecialized reports whether the configuration is exactly the
// canonical Specialized() shape.
func (c Config) isSpecialized() bool {
	if c.Protocol != ProtoDeNovo || c.Model != consistency.DRF || !c.ReadOnlyOpt || c.LazyWrites {
		return false
	}
	if len(c.Phases) != 2 {
		return false
	}
	return c.Phases[workload.PhasePush] == PhaseProto{Protocol: ProtoGPU, Model: consistency.DRF} &&
		c.Phases[workload.PhasePull] == PhaseProto{Protocol: ProtoDeNovo, Model: consistency.DRF}
}

func (c Config) baseName() string {
	switch {
	case c.Protocol == ProtoGPU && c.Model == consistency.DRF:
		return "GD"
	case c.Protocol == ProtoGPU && c.Model == consistency.HRF:
		return "GH"
	case c.Protocol == ProtoDeNovo && c.Model == consistency.DRF && c.ReadOnlyOpt:
		return "DD+RO"
	case c.Protocol == ProtoDeNovo && c.Model == consistency.DRF:
		return "DD"
	case c.Protocol == ProtoDeNovo && c.Model == consistency.HRF && c.LazyWrites:
		return "DH+lazy"
	case c.Protocol == ProtoDeNovo && c.Model == consistency.HRF:
		return "DH"
	default:
		return fmt.Sprintf("%v+%v", c.Protocol, c.Model)
	}
}

// The five configurations evaluated by the paper (Section 5.3).

// GD is GPU coherence with the DRF model.
func GD() Config { return Config{Protocol: ProtoGPU, Model: consistency.DRF}.Defaults() }

// GH is GPU coherence with the HRF model (scoped synchronization).
func GH() Config { return Config{Protocol: ProtoGPU, Model: consistency.HRF}.Defaults() }

// DD is DeNovo coherence with the DRF model.
func DD() Config { return Config{Protocol: ProtoDeNovo, Model: consistency.DRF}.Defaults() }

// DDRO is DD plus the read-only region optimization.
func DDRO() Config {
	return Config{Protocol: ProtoDeNovo, Model: consistency.DRF, ReadOnlyOpt: true}.Defaults()
}

// DH is DeNovo coherence with the HRF model: local scopes skip
// invalidations and flushes, and locally scoped synchronization delays
// ownership. Data writes register eagerly as in DD — delaying them too
// (Config.LazyWrites) parks whole working sets in the finite store
// buffer and loses to DD on write-heavy kernels, so it is left as an
// ablation knob rather than part of the paper configuration.
func DH() Config {
	return Config{Protocol: ProtoDeNovo, Model: consistency.HRF}.Defaults()
}

// Specialized is the per-phase specialized configuration (beyond the
// paper; Salvador et al., arXiv 2002.10245): DeNovo ownership with the
// read-only region optimization for pull phases and unphased kernels,
// writethrough GPU coherence (with relaxed atomics executing at the L2
// bank) for push phases, DRF throughout. A phase-transition drain runs
// between kernels whose phases differ.
func Specialized() Config {
	c := DDRO()
	c.Phases = map[string]PhaseProto{
		workload.PhasePush: {Protocol: ProtoGPU, Model: consistency.DRF},
		workload.PhasePull: {Protocol: ProtoDeNovo, Model: consistency.DRF},
	}
	return c
}

// AllConfigs returns the paper's five configurations in figure order.
func AllConfigs() []Config { return []Config{GD(), GH(), DD(), DDRO(), DH()} }

// addrRange is a half-open [Lo, Hi) byte range.
type addrRange struct{ lo, hi mem.Addr }

// Machine is one assembled system.
type Machine struct {
	cfg  Config
	topo topology.Desc
	eng  *sim.Engine
	// meshes[d] is device d's mesh, based at d*noc.Nodes; fabric is
	// the inter-device interconnect joining them (nil when Devices is
	// 1). net is what controllers are built against: the single mesh
	// itself on one device — keeping the pre-multi-device monomorphic
	// send path and byte-identical goldens — or the fabric otherwise.
	meshes  []*noc.Mesh
	fabric  *interconnect.Fabric
	net     noc.Network
	backing *mem.Backing
	banks   []*l2.Bank     // indexed by global node
	l1s     []coherence.L1 // the active set (== sets[active])
	cus     []*gpu.CU
	st      *stats.Stats
	// devSt[d] is the stats sink device d's components record through:
	// st itself on a single-device machine (counter names unchanged),
	// st.DeviceView(d) otherwise, so per-device counters keep distinct
	// "dN."-prefixed keys instead of silently summing across devices.
	devSt []*stats.Stats
	meter *energy.Meter

	// Per-phase protocol specialization: one full L1 controller set per
	// distinct PhaseProto the configuration uses. Exactly one set is
	// attached to the mesh and the CUs at a time; the others are empty
	// (the phase-transition drain empties the outgoing set before every
	// switch). denovoL1s aliases the DeNovo set when one exists — the
	// only set the registry's owner pointers can refer to.
	sets      map[PhaseProto][]coherence.L1
	setOrder  []PhaseProto
	denovoL1s []coherence.L1
	base      PhaseProto
	active    PhaseProto
	// ranInPhase records whether any kernel has executed since the
	// machine entered the active phase; a switch away from an idle
	// phase skips the quiesce delay (nothing is in flight).
	ranInPhase bool
	// drainOverlap is how much of the just-completed phase drain the
	// next kernel dispatch can hide: a switch only happens on the way
	// into a launch, so the command processor walks the registry while
	// it is already issuing that kernel. Only drain time beyond the
	// dispatch overhead adds latency.
	drainOverlap int

	ro  []addrRange
	err error
}

// New builds a machine for the configuration. It panics on a shape
// Validate rejects.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.Defaults()
	m := &Machine{
		cfg:     cfg,
		topo:    topology.New(cfg.Devices),
		eng:     sim.NewEngine(sim.Time(cfg.HorizonCycles)),
		backing: mem.NewBacking(),
		st:      stats.New(),
	}
	m.meter = energy.NewMeter(m.st)
	for d := 0; d < cfg.Devices; d++ {
		m.meshes = append(m.meshes, noc.NewAt(m.eng, m.st, m.meter, noc.NodeID(d*noc.Nodes)))
	}
	if cfg.Devices > 1 {
		m.fabric = interconnect.New(m.eng, m.st, m.meter, m.topo, m.meshes)
		m.net = m.fabric
		for d := 0; d < cfg.Devices; d++ {
			m.devSt = append(m.devSt, m.st.DeviceView(d))
		}
	} else {
		// Single device: controllers talk to the concrete mesh and the
		// root stats directly — the exact pre-multi-device machine, so
		// golden reports stay byte-identical.
		m.net = m.meshes[0]
		m.devSt = []*stats.Stats{m.st}
	}
	m.banks = make([]*l2.Bank, m.topo.TotalNodes())
	for n := noc.NodeID(0); int(n) < m.topo.TotalNodes(); n++ {
		d := m.topo.DeviceOf(n)
		m.banks[n] = l2.New(n, m.eng, m.net, m.backing, m.devSt[d], m.meter)
		if cfg.Devices > 1 {
			m.banks[n].SetTopology(m.topo)
		}
		m.meshes[d].Attach(n, noc.PortL2, m.banks[n])
	}
	// One L1 controller set per distinct PhaseProto, base first. The
	// constructors attach themselves to the mesh, so after building every
	// set the base set is re-attached explicitly below.
	m.base = PhaseProto{Protocol: cfg.Protocol, Model: cfg.Model}
	m.setOrder = []PhaseProto{m.base}
	for _, p := range slices.Sorted(maps.Keys(cfg.Phases)) {
		if pp := cfg.Phases[p]; !slices.Contains(m.setOrder, pp) {
			m.setOrder = append(m.setOrder, pp)
		}
	}
	m.sets = make(map[PhaseProto][]coherence.L1, len(m.setOrder))
	for _, pp := range m.setOrder {
		set := m.buildL1Set(pp)
		m.sets[pp] = set
		if pp.Protocol == ProtoDeNovo && m.denovoL1s == nil {
			m.denovoL1s = set
		}
	}
	m.active = m.base
	m.l1s = m.sets[m.base]
	m.attachSet(m.l1s)
	for i := 0; i < m.totalCUs(); i++ {
		cu := gpu.New(m.cuNode(i), m.eng, m.l1s[i], cfg.Model, m.devSt[i/cfg.NumCUs], m.meter, cfg.MaxResidentTBs)
		cu.Index = i
		m.cus = append(m.cus, cu)
	}
	return m
}

// totalCUs is the number of CUs across all devices — what workloads
// see as NumCUs and the length of every L1 set.
func (m *Machine) totalCUs() int { return m.cfg.Devices * m.cfg.NumCUs }

// cuNode maps a contiguous CU index (0..totalCUs-1) to its global mesh
// node: device idx/NumCUs, local node idx%NumCUs. The identity map on
// a single-device machine.
func (m *Machine) cuNode(idx int) noc.NodeID {
	return m.topo.Node(idx/m.cfg.NumCUs, idx%m.cfg.NumCUs)
}

// l1IndexOK maps a CU's global mesh node back to its index in the L1
// sets (the inverse of cuNode; registry owner pointers are global
// nodes). ok is false for a node hosting no CU — such a node can
// never legitimately own a word.
func (m *Machine) l1IndexOK(node noc.NodeID) (int, bool) {
	d, local := m.topo.DeviceOf(node), m.topo.LocalNode(node)
	if node < 0 || d >= m.cfg.Devices || local >= m.cfg.NumCUs {
		return 0, false
	}
	return d*m.cfg.NumCUs + local, true
}

// l1Index is l1IndexOK for callers where a CU-less owner is a wiring
// bug, not a checkable condition.
func (m *Machine) l1Index(node noc.NodeID) int {
	i, ok := m.l1IndexOK(node)
	if !ok {
		panic(fmt.Sprintf("machine: node %d hosts no CU", node))
	}
	return i
}

// buildL1Set constructs one per-CU L1 controller set for a PhaseProto,
// indexed by contiguous CU index across all devices.
func (m *Machine) buildL1Set(pp PhaseProto) []coherence.L1 {
	cfg := m.cfg
	set := make([]coherence.L1, 0, m.totalCUs())
	for i := 0; i < m.totalCUs(); i++ {
		node := m.cuNode(i)
		st := m.devSt[i/cfg.NumCUs]
		var l1 coherence.L1
		switch pp.Protocol {
		case ProtoGPU:
			// HRF (GPU-H) adds per-word dirty bits for partial blocks.
			gc := gpucoh.New(node, m.eng, m.net, st, m.meter, cfg.L1Bytes, cfg.L1Ways, cfg.SBEntries,
				pp.Model == consistency.HRF)
			if cfg.Devices > 1 {
				gc.SetTopology(m.topo)
			}
			l1 = gc
		case ProtoDeNovo:
			opts := denovo.Options{LazyWrites: cfg.LazyWrites}
			if cfg.ReadOnlyOpt {
				opts.ReadOnly = m.inReadOnly
			}
			dn := denovo.New(node, m.eng, m.net, st, m.meter, cfg.L1Bytes, cfg.L1Ways, cfg.SBEntries, opts)
			if cfg.Devices > 1 {
				dn.SetTopology(m.topo)
			}
			l1 = dn
		default:
			panic(fmt.Sprintf("machine: unknown protocol %d", pp.Protocol))
		}
		if cfg.FaultDisableAcquireInval {
			if f, ok := l1.(interface{ DisableAcquireInvalidation() }); ok {
				f.DisableAcquireInvalidation()
			}
		}
		if cfg.Invariants {
			if f, ok := l1.(interface{ EnableInvariantChecks() }); ok {
				f.EnableInvariantChecks()
			}
		}
		set = append(set, l1)
	}
	return set
}

// attachSet points each mesh's per-node L1 ports at the given set.
func (m *Machine) attachSet(set []coherence.L1) {
	for i, l1 := range set {
		m.net.Attach(m.cuNode(i), noc.PortL1, l1.(noc.Handler))
	}
}

// eachL1 visits every L1 controller of every set in deterministic
// order (set construction order, then CU order).
func (m *Machine) eachL1(fn func(l1 coherence.L1)) {
	for _, pp := range m.setOrder {
		for _, l1 := range m.sets[pp] {
			fn(l1)
		}
	}
}

func (m *Machine) inReadOnly(w mem.Word) bool {
	a := w.Addr()
	for _, r := range m.ro {
		if a >= r.lo && a < r.hi {
			return true
		}
	}
	return false
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Meshes exposes every device's mesh.
func (m *Machine) Meshes() []*noc.Mesh { return m.meshes }

// Fabric exposes the inter-device interconnect (nil when Devices is 1).
func (m *Machine) Fabric() *interconnect.Fabric { return m.fabric }

// Topology returns the machine's device geometry.
func (m *Machine) Topology() topology.Desc { return m.topo }

// Engine exposes the simulation engine (for trace timestamps).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Stats returns the accumulated measurements.
func (m *Machine) Stats() *stats.Stats { return m.st }

// NewRecorder returns an obs recorder clocked by this machine's engine,
// ready to pass to SetObservability. capacity <= 0 selects
// obs.DefaultCapacity.
func (m *Machine) NewRecorder(capacity int) *obs.Recorder {
	return obs.NewRecorder(func() uint64 { return uint64(m.eng.Now()) }, capacity)
}

// SetObservability wires an event recorder and/or an epoch sampler into
// every layer of the machine. Either argument may be nil. The recorder
// reaches the mesh (NoC flit hops), the L2 banks, every L1 controller
// (DeNovo and GPU coherence), the store buffers, and the CUs
// (warp-stall spans). The sampler is driven by the engine's advance
// hook — it adds no events to the queue, so cycle counts and
// fired-event totals stay bit-identical to an unobserved run — and
// captures MSHR occupancy, store-buffer depth, outstanding
// registrations, and cumulative per-link NoC busy flit-cycles.
func (m *Machine) SetObservability(rec *obs.Recorder, sampler *obs.Sampler) {
	if rec != nil {
		for _, mesh := range m.meshes {
			mesh.SetRecorder(rec)
		}
		for _, bank := range m.banks {
			if bank != nil {
				bank.SetRecorder(rec)
			}
		}
		m.eachL1(func(l1 coherence.L1) {
			if s, ok := l1.(interface{ SetRecorder(*obs.Recorder) }); ok {
				s.SetRecorder(rec)
			}
		})
		for _, cu := range m.cus {
			cu.SetRecorder(rec)
			rec.NameTrack(obs.DomainCU, int32(cu.Node), fmt.Sprintf("cu-%02d", int(cu.Node)))
		}
	}
	if sampler == nil {
		return
	}
	type mshrProbe interface{ MSHROccupancy() int }
	type regProbe interface{ OutstandingRegistrations() int }
	type sbProbe interface{ StoreBufferLen() int }
	sampler.AddGauge("l1.mshr.sum", func() uint64 {
		var sum uint64
		m.eachL1(func(l1 coherence.L1) {
			if p, ok := l1.(mshrProbe); ok {
				sum += uint64(p.MSHROccupancy())
			}
		})
		return sum
	})
	sampler.AddGauge("l1.mshr.max", func() uint64 {
		var max uint64
		m.eachL1(func(l1 coherence.L1) {
			if p, ok := l1.(mshrProbe); ok {
				if v := uint64(p.MSHROccupancy()); v > max {
					max = v
				}
			}
		})
		return max
	})
	sampler.AddGauge("sb.depth.sum", func() uint64 {
		var sum uint64
		m.eachL1(func(l1 coherence.L1) {
			if p, ok := l1.(sbProbe); ok {
				sum += uint64(p.StoreBufferLen())
			}
		})
		return sum
	})
	sampler.AddGauge("sb.depth.max", func() uint64 {
		var max uint64
		m.eachL1(func(l1 coherence.L1) {
			if p, ok := l1.(sbProbe); ok {
				if v := uint64(p.StoreBufferLen()); v > max {
					max = v
				}
			}
		})
		return max
	})
	sampler.AddGauge("l1.out_regs.sum", func() uint64 {
		var sum uint64
		m.eachL1(func(l1 coherence.L1) {
			if p, ok := l1.(regProbe); ok {
				sum += uint64(p.OutstandingRegistrations())
			}
		})
		return sum
	})
	for _, mesh := range m.meshes {
		mesh := mesh
		for local := noc.NodeID(0); local < noc.Nodes; local++ {
			for dir := 0; dir < 4; dir++ {
				n, dir := mesh.Base()+local, dir
				sampler.AddGauge("noc.busy."+noc.LinkName(n, dir), func() uint64 {
					return mesh.LinkBusy(n, dir)
				})
			}
		}
	}
	if m.fabric != nil {
		for s := 0; s < m.cfg.Devices; s++ {
			for d := 0; d < m.cfg.Devices; d++ {
				if s == d {
					continue
				}
				s, d := s, d
				sampler.AddGauge(fmt.Sprintf("xdev.busy.d%d-d%d", s, d), func() uint64 {
					return m.fabric.LinkBusy(s, d)
				})
			}
		}
	}
	m.eng.SetAdvanceHook(func(leaving sim.Time) { sampler.Tick(uint64(leaving)) })
}

// Err returns the first simulation error (hang/horizon), if any.
func (m *Machine) Err() error { return m.err }

var _ workload.Host = (*Machine)(nil)

// NumCUs implements workload.Host: the total CU count across all
// devices — workloads partition work over the whole machine.
func (m *Machine) NumCUs() int { return m.totalCUs() }

// Launch implements workload.Host: it dispatches the kernel's thread
// blocks round-robin across CUs, performs the kernel-boundary global
// acquire on every participating CU, runs the simulation until every
// block finishes and every CU's kernel-end global release completes,
// and advances simulated time accordingly.
func (m *Machine) Launch(k workload.Kernel, numTBs, threadsPerTB int) {
	if m.err != nil {
		return
	}
	if numTBs <= 0 || threadsPerTB <= 0 {
		m.err = fmt.Errorf("machine: invalid grid %d x %d", numTBs, threadsPerTB)
		return
	}
	// Thread blocks are distributed round-robin with a per-launch
	// rotation: real GPU block schedulers give no cross-kernel
	// CU affinity, so block i of kernel n+1 must not be assumed to land
	// on the CU that ran block i of kernel n.
	rot := m.launchRot()
	total := m.totalCUs()
	assign := make([][]int, total)
	for tb := 0; tb < numTBs; tb++ {
		cu := (tb + rot) % total
		assign[cu] = append(assign[cu], tb)
	}
	overhead := m.cfg.LaunchOverheadCycles - m.drainOverlap
	if overhead < 0 {
		overhead = 0
	}
	m.drainOverlap = 0
	complete := false
	remaining := total
	m.eng.Schedule(sim.Time(overhead), func() {
		for i, cu := range m.cus {
			cu.L1().Acquire(coherence.ScopeGlobal)
			cu := cu
			cu.StartKernel(k, assign[i], threadsPerTB, numTBs, total, func() {
				cu.L1().Release(coherence.ScopeGlobal, func() {
					remaining--
					if remaining == 0 {
						complete = true
					}
				})
			})
		}
	})
	if err := m.eng.Run(); err != nil {
		m.err = fmt.Errorf("machine: kernel launch: %w", err)
		return
	}
	if !complete {
		m.err = fmt.Errorf("machine: kernel deadlocked (event queue drained with %d CUs unfinished)", remaining)
		return
	}
	for i, l1 := range m.l1s {
		if !l1.Drained() {
			m.err = fmt.Errorf("machine: CU %d not drained after kernel", i)
			return
		}
	}
	if err := m.CheckInvariants(); err != nil {
		m.err = fmt.Errorf("machine: after kernel: %w", err)
		return
	}
	m.st.Cycles = uint64(m.eng.Now())
	m.st.Inc("kernels_launched", 1)
	m.ranInPhase = true
}

// LaunchPhase implements workload.Host: it runs the kernel under
// the protocol/model Config.Phases selects for the phase label (the
// base configuration for unlisted labels), performing a
// phase-transition drain first when the selection differs from the
// currently active one.
func (m *Machine) LaunchPhase(phase string, k workload.Kernel, numTBs, threadsPerTB int) {
	if m.err != nil {
		return
	}
	target := m.base
	if pp, ok := m.cfg.Phases[phase]; ok {
		target = pp
	}
	if target != m.active {
		if err := m.switchPhase(target); err != nil {
			m.err = fmt.Errorf("machine: phase switch to %q: %w", phase, err)
			return
		}
	}
	m.Launch(k, numTBs, threadsPerTB)
}

// switchPhase performs the phase-transition drain and moves the CUs
// onto the target PhaseProto's L1 set. The drain contract (DESIGN.md):
//
//  1. Quiesce: PhaseDrainCycles of simulated time pass while the
//     outgoing set's store buffers and MSHRs empty. The previous
//     kernel's boundary release already forced this, so finding a
//     non-drained controller afterwards is a protocol bug, not a
//     workload property.
//  2. Retire registrations: every word the registry records as owned
//     by an outgoing DeNovo L1 is recalled — the L1 surrenders the
//     word's value, the home bank becomes the owner again. The
//     incoming protocol thus finds a registry with no dangling owner
//     pointers (the GPU protocol's bank-side atomics treat a
//     registered word as a protocol-mixing bug).
//  3. Drop: the outgoing caches flash-invalidate whatever clean state
//     remains, so no stale copy can resurface if the machine later
//     switches back.
//  4. Verify (the phase-drain invariant, always armed here): the
//     registry holds no registered words, and every outgoing
//     controller is drained. With Config.Invariants set, the outgoing
//     controllers' quiesced-state suites run as well.
func (m *Machine) switchPhase(target PhaseProto) error {
	// Simulated cost of the drain: the command processor quiesces the
	// pipeline before reprogramming the L1s. A switch before any kernel
	// has run in the active phase is free — there is nothing to
	// quiesce, and programming the initial L1 mode rides along with the
	// first kernel's dispatch.
	if m.ranInPhase {
		fired := false
		m.eng.Schedule(sim.Time(m.cfg.PhaseDrainCycles), func() { fired = true })
		if err := m.eng.Run(); err != nil {
			return fmt.Errorf("phase-drain: %w", err)
		}
		if !fired {
			return fmt.Errorf("phase-drain: drain event did not fire")
		}
		m.st.Cycles = uint64(m.eng.Now())
		// The switch is on the way into a launch, so the drain runs
		// concurrently with that kernel's dispatch; credit the overlap
		// back against the launch overhead.
		m.drainOverlap = m.cfg.PhaseDrainCycles
	}

	out := m.l1s
	for i, l1 := range out {
		if !l1.Drained() {
			return fmt.Errorf("phase-drain: CU %d not drained at phase switch", i)
		}
	}
	if m.active.Protocol == ProtoDeNovo {
		if err := m.retireRegistrations(out); err != nil {
			return err
		}
	}
	for i, l1 := range out {
		if d, ok := l1.(interface{ HostDropClean() (int, error) }); ok {
			if _, err := d.HostDropClean(); err != nil {
				return fmt.Errorf("phase-drain: CU %d: %w", i, err)
			}
		}
	}
	if err := m.checkPhaseDrain(out); err != nil {
		return err
	}
	if m.cfg.Invariants {
		for i, l1 := range out {
			if ck, ok := l1.(interface{ CheckInvariants() error }); ok {
				if err := ck.CheckInvariants(); err != nil {
					return fmt.Errorf("phase-drain: CU %d: %w", i, err)
				}
			}
		}
	}

	in := m.sets[target]
	m.attachSet(in)
	for i, cu := range m.cus {
		cu.SetL1(in[i])
		cu.SetModel(target.Model)
	}
	m.l1s = in
	m.active = target
	m.ranInPhase = false
	m.st.Inc("phase_switches", 1)
	return nil
}

// retireRegistrations recalls every registered word from the outgoing
// DeNovo set to its home bank (step 2 of the drain contract). Words
// are recalled in address order so the walk is deterministic
// regardless of registry iteration order.
func (m *Machine) retireRegistrations(out []coherence.L1) error {
	type regWord struct {
		w     mem.Word
		owner noc.NodeID
	}
	var regs []regWord // reused across banks
	for _, bank := range m.banks {
		regs = regs[:0]
		bank.ForEachRegistered(func(w mem.Word, owner noc.NodeID) {
			regs = append(regs, regWord{w, owner})
		})
		slices.SortFunc(regs, func(a, b regWord) int { return cmp.Compare(a.w, b.w) })
		for _, r := range regs {
			idx, ok := m.l1IndexOK(r.owner)
			if !ok || idx >= len(out) {
				return fmt.Errorf("phase-drain: word %v registered to nonexistent node %d", r.w, r.owner)
			}
			dn, ok := out[idx].(*denovo.Controller)
			if !ok {
				return fmt.Errorf("phase-drain: word %v registered to non-DeNovo node %d", r.w, r.owner)
			}
			v, ok := dn.HostSteal(r.w)
			if !ok {
				return fmt.Errorf("phase-drain: word %v registered to node %d, which does not own it", r.w, r.owner)
			}
			bank.Recall(r.w, v)
		}
	}
	return nil
}

// checkPhaseDrain is the always-on phase-drain invariant: after the
// drain, the registry must hold no registered words and every outgoing
// controller must be quiescent. The mcheck suite lists it alongside
// the protocol invariants (mcheck.Invariants, name "phase-drain").
func (m *Machine) checkPhaseDrain(out []coherence.L1) error {
	for _, bank := range m.banks {
		var err error
		bank.ForEachRegistered(func(w mem.Word, owner noc.NodeID) {
			if err == nil {
				err = fmt.Errorf("phase-drain: word %v still registered to node %d after drain", w, owner)
			}
		})
		if err != nil {
			return err
		}
	}
	for i, l1 := range out {
		if !l1.Drained() {
			return fmt.Errorf("phase-drain: CU %d not drained after drop", i)
		}
	}
	return nil
}

// launchRot is the per-launch placement rotation: real GPU block
// schedulers give no cross-kernel CU affinity, so each launch rotates
// the round-robin start.
func (m *Machine) launchRot() int {
	return int(m.st.Get("kernels_launched")) * 7
}

// PlaceTB returns the thread-block index that the *next* Launch on this
// machine will run on the given CU, for the slot-th block assigned to
// that CU (slot 0, 1, ... up to Config.MaxResidentTBs-1 run
// concurrently). It exposes the launcher's round-robin placement so
// correctness harnesses (internal/litmus) can pin litmus threads to
// chosen CUs; the grid must span at least NumCUs*(slot+1) blocks for
// the returned index to be dispatched.
func (m *Machine) PlaceTB(cu, slot int) int {
	n := m.totalCUs()
	base := ((cu-m.launchRot())%n + n) % n
	return base + slot*n
}

// CheckInvariants validates the protocol's global ownership agreement
// at a quiesced point. Always on for DeNovo: every word the registry
// records as registered must be present (and only be writable) at
// exactly that L1 (the l2-agreement invariant). With Config.Invariants
// armed it also runs every controller's quiesced-state suite
// (store-buffer structure, lazy/registration exclusivity, writethrough
// balance — see each protocol's CheckInvariants). It runs
// automatically after every kernel, so every benchmark in the suite
// doubles as a protocol invariant check.
func (m *Machine) CheckInvariants() error {
	if m.denovoL1s != nil {
		for _, bank := range m.banks {
			var err error
			bank.ForEachRegistered(func(w mem.Word, owner noc.NodeID) {
				if err != nil {
					return
				}
				idx, ok := m.l1IndexOK(owner)
				if !ok || idx >= len(m.denovoL1s) {
					err = fmt.Errorf("word %v registered to nonexistent node %d", w, owner)
					return
				}
				dn := m.denovoL1s[idx].(*denovo.Controller)
				if !dn.OwnsWord(w) {
					err = fmt.Errorf("word %v registered to node %d, which does not own it", w, owner)
				}
			})
			if err != nil {
				return err
			}
		}
	}
	if !m.cfg.Invariants {
		return nil
	}
	for _, pp := range m.setOrder {
		for i, l1 := range m.sets[pp] {
			if ck, ok := l1.(interface{ CheckInvariants() error }); ok {
				if err := ck.CheckInvariants(); err != nil {
					return fmt.Errorf("CU %d (%v set): %w", i, pp.Protocol, err)
				}
			}
		}
	}
	return nil
}

// Read implements workload.Host: a functional, coherent read that
// honors DeNovo ownership (registered words live in L1s between
// kernels).
func (m *Machine) Read(a mem.Addr) uint32 {
	w := a.WordOf()
	bank := m.banks[m.topo.HomeNode(w.LineOf())]
	// Only the DeNovo set can hold registry-owned words, regardless of
	// which set is currently active.
	if owner := bank.PeekOwner(w); owner != l2.MemoryOwner {
		if v, ok := m.denovoL1s[m.l1Index(owner)].PeekWord(w); ok {
			return v
		}
		panic(fmt.Sprintf("machine: registry says node %d owns %v but its L1 has no copy", owner, w))
	}
	return bank.PeekData(w)
}

// Write implements workload.Host: a functional, coherent write; if an
// L1 owns the word it is recalled first.
func (m *Machine) Write(a mem.Addr, v uint32) {
	vals := [1]uint32{v}
	m.WriteWords(a, vals[:])
}

// WriteWords implements workload.Host: a functional, coherent
// write of len(vals) contiguous words starting at base (word aligned).
// Semantically identical to calling Write once per word, but the
// stale-copy invalidation visits each L1 once per cache line instead
// of once per word — host-side input seeding is a dominant cost for
// short-running cells and this is its fast path.
func (m *Machine) WriteWords(base mem.Addr, vals []uint32) {
	w0 := base.WordOf()
	for off := 0; off < len(vals); {
		w := w0 + mem.Word(off)
		l := w.LineOf()
		first := w.Index()
		n := mem.WordsPerLine - first
		if rest := len(vals) - off; n > rest {
			n = rest
		}
		var mask mem.WordMask
		for i := 0; i < n; i++ {
			mask |= mem.Bit(first + i)
		}
		m.hostWriteRun(l, first, vals[off:off+n])
		// Stale clean copies in any L1 must not survive (a
		// read-only-region declaration could otherwise carry them past
		// the next acquire). Inactive phase sets are empty post-drain,
		// but visiting them keeps the property unconditional.
		m.eachL1(func(l1 coherence.L1) {
			l1.HostInvalidateLine(l, mask)
		})
		off += n
	}
}

// hostWriteRun updates the registry's copy of words [first, first+len)
// of line l, recalling any word registered to an L1 first.
func (m *Machine) hostWriteRun(l mem.Line, first int, vals []uint32) {
	bank := m.banks[m.topo.HomeNode(l)]
	for i, v := range vals {
		w := l.Word(first + i)
		if owner := bank.PeekOwner(w); owner != l2.MemoryOwner {
			dn, ok := m.denovoL1s[m.l1Index(owner)].(*denovo.Controller)
			if !ok {
				panic("machine: non-DeNovo L1 owns a word")
			}
			if _, ok := dn.HostSteal(w); !ok {
				panic(fmt.Sprintf("machine: cannot steal %v from node %d", w, owner))
			}
			bank.Recall(w, v)
		} else {
			bank.PokeData(w, v)
		}
	}
}

// SetReadOnly implements workload.Host: marks [lo, hi) as a read-only
// region for DD+RO's selective invalidation.
func (m *Machine) SetReadOnly(lo, hi mem.Addr) {
	m.ro = append(m.ro, addrRange{lo: lo, hi: hi})
}

// ClearReadOnly implements workload.Host. It must be called before the
// host mutates a previously read-only range.
func (m *Machine) ClearReadOnly() {
	m.ro = nil
	for _, l1 := range m.denovoL1s {
		l1.(*denovo.Controller).ReadOnlyRevoked()
	}
}
