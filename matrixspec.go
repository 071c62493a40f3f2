package denovogpu

// This file is the serialization surface of the sweep service
// (internal/sweepd, cmd/sweepd): the wire spec for sweep cells of both
// kinds, the canonical cache key content-addressing a cell's result,
// and the canonical report encoding — the exact bytes the golden
// harness pins under internal/machine/testdata/golden, so a cached or
// remotely-computed report is verifiable byte-for-byte against the
// serial goldens.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"slices"
	"sort"
	"strings"

	"denovogpu/internal/litmus"
	"denovogpu/internal/mcheck"
	"denovogpu/internal/stats"
	"denovogpu/internal/workload/graph"
)

// ConfigSpec selects a configuration on the wire: by paper name
// ("GD" … "SPEC", resolved through ConfigByName) or as a raw Config
// struct. Exactly one of the two must be set. Devices, if non-zero,
// overrides the device count of the resolved configuration (so
// `{"name":"DD","devices":2}` is the 2-device DD machine, named
// "DDx2").
type ConfigSpec struct {
	Name    string  `json:"name,omitempty"`
	Raw     *Config `json:"config,omitempty"`
	Devices int     `json:"devices,omitempty"`
}

// Resolve returns the selected configuration, or an error when it names
// a machine shape that cannot be built (Config.Validate).
func (s ConfigSpec) Resolve() (Config, error) {
	var cfg Config
	switch {
	case s.Name != "" && s.Raw != nil:
		return Config{}, fmt.Errorf("denovogpu: config spec sets both name %q and a raw config", s.Name)
	case s.Name != "":
		c, err := ConfigByName(s.Name)
		if err != nil {
			return Config{}, err
		}
		cfg = c
	case s.Raw != nil:
		cfg = *s.Raw
	default:
		return Config{}, fmt.Errorf("denovogpu: empty config spec (want name or config)")
	}
	if s.Devices != 0 {
		cfg.Devices = s.Devices
	}
	return cfg, cfg.Validate()
}

// CellSpec is the wire form of one cell of a sweep, of either kind:
//
//   - A simulation cell sets Workload: a configuration, a built-in
//     workload name, and an optional seed. Seed 0 selects the
//     workload's registered default input; a non-zero seed
//     re-parameterizes the graph-analytics generators (BFS, PR, SSSP)
//     with that graph seed and is an error for the fixed Table 4
//     benchmarks.
//   - A check cell sets Program: a configuration, a catalog litmus
//     program, and the exploration parameters. Budget <= 0 selects
//     mcheck.DefaultBudget and is canonicalized before keying, so
//     specs that spell the default differently share a cache key. A
//     check cell is always the whole exploration: mcheck.Check splits
//     it over the cores of the one worker slot that runs it.
//
// Validate rejects a cell that sets both or neither of Workload and
// Program, a Seed on a check cell, and a Budget on a simulation cell,
// so one cell can never mean two different runs.
// Both kinds flow through the same sweepd queue, lease and cache
// machinery, keyed by CellKey and executed by Run.
type CellSpec struct {
	Config   ConfigSpec `json:"config,omitempty"`
	Workload string     `json:"workload,omitempty"`
	Seed     uint64     `json:"seed,omitempty"`
	Program  string     `json:"program,omitempty"`
	Budget   int        `json:"budget,omitempty"`
}

// resolvedCell is a validated CellSpec's runnable pieces: the
// configuration, plus a check cell's program and canonical exploration
// options (prog is nil for a simulation cell). Resolution never builds
// a workload, so validating and keying a seeded graph cell does not
// generate its graph.
type resolvedCell struct {
	cfg  Config
	prog *litmus.Program
	opts mcheck.Options
}

func (s CellSpec) resolve() (resolvedCell, error) {
	switch {
	case s.Workload != "" && s.Program != "":
		return resolvedCell{}, fmt.Errorf("denovogpu: cell sets both workload %q and program %q", s.Workload, s.Program)
	case s.Workload == "" && s.Program == "":
		return resolvedCell{}, errors.New("denovogpu: cell sets neither a workload nor a program")
	}
	cfg, err := s.Config.Resolve()
	if err != nil {
		return resolvedCell{}, err
	}
	if s.Program == "" {
		if s.Budget != 0 {
			return resolvedCell{}, fmt.Errorf("denovogpu: simulation cell %q sets a check-only field (budget)", s.Workload)
		}
		if s.Seed == 0 {
			var w Workload
			if w, err = WorkloadByName(s.Workload); err == nil {
				err = w.CheckDevices(cfg.Devices)
			}
		} else if seededGraphs[s.Workload] == nil {
			err = fmt.Errorf("denovogpu: seed %d: only the graph workloads (BFS, PR, SSSP) are seedable, not %q", s.Seed, s.Workload)
		}
		return resolvedCell{cfg: cfg}, err
	}
	if s.Seed != 0 {
		return resolvedCell{}, fmt.Errorf("denovogpu: check cell %q sets a seed", s.Program)
	}
	p, err := LitmusProgramByName(s.Program)
	if err != nil {
		return resolvedCell{}, err
	}
	budget := s.Budget
	if budget <= 0 {
		budget = mcheck.DefaultBudget
	}
	return resolvedCell{cfg: cfg, prog: p, opts: mcheck.Options{Budget: budget}}, nil
}

// Validate rejects an unresolvable or ill-formed cell (unknown config,
// workload or program, a field of the other kind, or fewer
// devices than the workload is sized for) without running anything.
func (s CellSpec) Validate() error {
	_, err := s.resolve()
	return err
}

// Label names the cell in progress events and failure lines: its
// workload, or "check:MP" for a check cell, and its configuration's
// name ("" when the config does not resolve).
func (s CellSpec) Label() (workload, config string) {
	if cfg, err := s.Config.Resolve(); err == nil {
		config = cfg.Name()
	}
	if s.Program != "" {
		return "check:" + s.Program, config
	}
	return s.Workload, config
}

// Run executes the cell and returns its canonical report with the
// work it did: MarshalReport bytes and fired simulator events for a
// simulation cell, MarshalCheckReport bytes and explored states for a
// check cell. An exploration error such as *mcheck.BudgetError is
// returned as an error, not encoded in a report: budget exhaustion is
// not a verdict.
func (s CellSpec) Run() (report []byte, events uint64, err error) {
	r, err := s.resolve()
	if err != nil {
		return nil, 0, err
	}
	if r.prog != nil {
		return r.check()
	}
	w, err := workloadForSpec(s.Workload, s.Seed)
	if err != nil {
		return nil, 0, err
	}
	rep, err := Run(r.cfg, w)
	if err != nil {
		return nil, 0, err
	}
	report, err = MarshalReport(rep)
	return report, rep.Events, err
}

// Cell resolves a simulation cell into a runnable matrix cell.
func (s CellSpec) Cell() (MatrixCell, error) {
	r, err := s.resolve()
	if err != nil {
		return MatrixCell{}, err
	}
	if r.prog != nil {
		return MatrixCell{}, fmt.Errorf("denovogpu: cell spec is a check cell (program %q); run it with CellSpec.Run", s.Program)
	}
	w, err := workloadForSpec(s.Workload, s.Seed)
	return MatrixCell{Config: r.cfg, Workload: w}, err
}

// seededGraphs are the workloads a non-zero seed re-parameterizes.
var seededGraphs = map[string]func(graph.Params) Workload{
	"BFS": graph.BFS, "PR": graph.PageRank, "SSSP": graph.SSSP,
}

// workloadForSpec builds a resolved simulation cell's workload.
func workloadForSpec(name string, seed uint64) (Workload, error) {
	if seed == 0 {
		return WorkloadByName(name)
	}
	p := graph.DefaultParams()
	p.Seed = seed
	return seededGraphs[name](p), nil
}

// MatrixSpec is the wire form of a sweep: the cross product
// configs × workloads × seeds (config-major, then workload, then seed
// — the paper-figure convention of Matrix), plus optional explicit
// extra cells appended after the product. An empty Seeds list means
// one cell per (config, workload) at the default input.
type MatrixSpec struct {
	Configs   []ConfigSpec `json:"configs,omitempty"`
	Workloads []string     `json:"workloads,omitempty"`
	Seeds     []uint64     `json:"seeds,omitempty"`
	Cells     []CellSpec   `json:"cells,omitempty"`
	// KeepGoing runs every cell even after failures, with
	// MatrixOptions.KeepGoing semantics; off, the first failure stops
	// dispatch and unstarted cells are skipped.
	KeepGoing bool `json:"keep_going,omitempty"`
}

// MaxMatrixCells bounds the cells one MatrixSpec may expand to. The
// product grows multiplicatively with its lists, so a few kilobytes of
// JSON can name millions of cells; the sweep service checks CellCount
// against this bound before expanding anything.
const MaxMatrixCells = 1 << 16

// CellCount returns the number of cells CellSpecs would produce, or
// false when that number exceeds MaxMatrixCells. It never overflows
// and allocates nothing.
func (m MatrixSpec) CellCount() (int, bool) {
	n := len(m.Configs)
	for _, k := range []int{len(m.Workloads), max(len(m.Seeds), 1)} {
		if k != 0 && n > MaxMatrixCells/k {
			return 0, false
		}
		n *= k
	}
	if len(m.Cells) > MaxMatrixCells-n {
		return 0, false
	}
	return n + len(m.Cells), true
}

// DecodeMatrixSpec reads a JSON matrix spec as the sweep service takes
// a submit: unknown fields are errors, and each list is refused once it
// passes MaxMatrixCells entries, so the cell bound, not the body size,
// bounds what decoding allocates. A longer list either expands past the
// bound or adds no cell at all (configs with no workloads). CellCount
// still judges the whole spec.
func DecodeMatrixSpec(r io.Reader) (MatrixSpec, error) {
	var w struct { // the bounded lists shadow MatrixSpec's
		MatrixSpec
		Configs   boundedList[ConfigSpec] `json:"configs,omitempty"`
		Workloads boundedList[string]     `json:"workloads,omitempty"`
		Seeds     boundedList[uint64]     `json:"seeds,omitempty"`
		Cells     boundedList[CellSpec]   `json:"cells,omitempty"`
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&w)
	spec := w.MatrixSpec
	spec.Configs, spec.Workloads, spec.Seeds, spec.Cells = w.Configs, w.Workloads, w.Seeds, w.Cells
	return spec, err
}

// boundedList decodes a JSON array strictly, one element at a time. It
// grows by doubling up to the bound, so a refused list allocates about
// twice what it holds (append's 1.25x steps would make that five).
type boundedList[T any] []T

func (l *boundedList[T]) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*l = nil
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
		return errors.New("denovogpu: matrix spec list is not a JSON array")
	}
	list := (*l)[:0]
	for dec.More() {
		if len(list) == MaxMatrixCells {
			return fmt.Errorf("denovogpu: matrix spec list has more than %d entries", MaxMatrixCells)
		}
		if len(list) == cap(list) {
			list = slices.Grow(list, min(max(len(list), 1), MaxMatrixCells-len(list)))
		}
		var zero T
		list = append(list, zero)
		if err := dec.Decode(&list[len(list)-1]); err != nil {
			return err
		}
	}
	*l = list
	return nil
}

// CellSpecs expands the spec into its per-cell list. Check CellCount
// first on a spec from outside the process.
func (m MatrixSpec) CellSpecs() []CellSpec {
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{0}
	}
	out := make([]CellSpec, 0, len(m.Configs)*len(m.Workloads)*len(seeds)+len(m.Cells))
	for _, c := range m.Configs {
		for _, w := range m.Workloads {
			for _, s := range seeds {
				out = append(out, CellSpec{Config: c, Workload: w, Seed: s})
			}
		}
	}
	return append(out, m.Cells...)
}

// PinnedCells returns the golden-pinned (workload, config) subset —
// the cells whose reports are committed byte-for-byte under
// internal/machine/testdata/golden, in golden-harness order. It is the
// reference matrix for the sweep service's differential wall: a
// distributed or cached sweep of these cells must reproduce the
// committed files exactly.
func PinnedCells() []CellSpec {
	var cells []CellSpec
	add := func(w, c string) {
		cells = append(cells, CellSpec{Config: ConfigSpec{Name: c}, Workload: w})
	}
	allCfg := []string{"GD", "GH", "DD", "DD+RO", "DH"}
	for _, w := range []string{"LAVA", "ST", "NN", "BP", "UTS", "SPM_L"} {
		for _, c := range allCfg {
			add(w, c)
		}
	}
	for _, c := range []string{"GD", "GH"} {
		add("SPMBO_G", c)
	}
	for _, w := range []string{"BFS", "PR", "SSSP"} {
		for _, c := range []string{"GD", "DD", "DD+RO", "SPEC"} {
			add(w, c)
		}
	}
	return cells
}

// ReportFileName is the canonical artifact name for one cell's report
// ("+" in config names is not filesystem-friendly); it matches the
// committed golden file names.
func ReportFileName(workload, config string) string {
	return fmt.Sprintf("%s_%s.json", workload, strings.ReplaceAll(config, "+", "-"))
}

// CodeVersion identifies the simulator build for cache keying: the VCS
// revision when the binary was stamped with one (plus a "+dirty"
// marker for modified trees), else the module version, else "devel".
// Two binaries with equal CodeVersion are assumed to simulate
// identically; "devel" and dirty builds break that assumption, so
// development caches should be wiped after code changes (CI builds
// from clean checkouts and is immune).
func CodeVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev != "" {
		if modified == "true" {
			return rev + "+dirty"
		}
		return rev
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	return "devel"
}

// CellKey returns the canonical content address of one cell: the hex
// SHA-256 of length-prefixed parts. A simulation cell hashes
// ("denovogpu-cell/v2", code version, canonicalized configuration,
// workload name, seed); a check cell hashes ("denovogpu-check/v3", code
// version, canonicalized configuration, program, budget), with budget
// canonicalized. The configuration is canonicalized by applying
// Defaults() and serializing the resulting struct — so specs that spell
// the same machine differently (JSON field order, explicit default
// values vs omitted fields) share a key, and any field that changes
// simulated behavior changes it. Everything in Config is part of the
// key, including a field proven behavior-neutral (Invariants): a
// spurious miss only costs a re-run, a spurious hit would be wrong.
// The domain strings are versioned (the cell domain "/v2"
// since the Devices field landed, the check domain "/v3" since the
// shard part left it) so warm caches written by older binaries can
// never satisfy a lookup from a build with a different schema. CellKey
// validates the cell, so an unkeyable cell is an invalid one.
func CellKey(codeVersion string, s CellSpec) (string, error) {
	r, err := s.resolve()
	if err != nil {
		return "", err
	}
	cfgJSON, err := json.Marshal(r.cfg.Defaults())
	if err != nil {
		return "", err
	}
	if r.prog == nil {
		return hashParts("denovogpu-cell/v2", codeVersion, string(cfgJSON), s.Workload, fmt.Sprintf("%d", s.Seed)), nil
	}
	return hashParts("denovogpu-check/v3", codeVersion, string(cfgJSON), r.prog.Name,
		fmt.Sprintf("%d", r.opts.Budget)), nil
}

// hashParts is the hex SHA-256 of each part written as "len:part", so
// no two part lists share an encoding.
func hashParts(parts ...string) string {
	h := sha256.New()
	for _, part := range parts {
		fmt.Fprintf(h, "%d:%s", len(part), part)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reportJSON is the canonical serialized form of a Report. Maps are
// used for the named dimensions because encoding/json emits map keys
// in sorted order, making the output canonical; this is the exact
// golden-file layout pinned since PR 2.
type reportJSON struct {
	Config   string             `json:"config"`
	Workload string             `json:"workload"`
	Cycles   uint64             `json:"cycles"`
	Events   uint64             `json:"events"`
	EnergyPJ map[string]float64 `json:"energy_pj"`
	Flits    map[string]uint64  `json:"flits"`
	Counters map[string]uint64  `json:"counters"`
}

// MarshalReport serializes a report canonically: two byte slices are
// equal iff the runs they came from measured identically. This is the
// byte format of the committed golden files, of the sweep service's
// report endpoints, and of the result cache's payloads.
func MarshalReport(r Report) ([]byte, error) {
	g := reportJSON{
		Config:   r.Config,
		Workload: r.Workload,
		Cycles:   r.Cycles,
		Events:   r.Events,
		EnergyPJ: make(map[string]float64),
		Flits:    make(map[string]uint64),
		Counters: make(map[string]uint64),
	}
	for c := stats.Component(0); c < stats.NumComponents; c++ {
		g.EnergyPJ[c.String()] = r.EnergyPJ[c]
	}
	for c := stats.TrafficClass(0); c < stats.NumTrafficClasses; c++ {
		// Classes added after the goldens were pinned (XDev onward) are
		// omitted when zero, so single-device reports keep the exact byte
		// layout committed since PR 2.
		if c >= stats.NumLegacyTrafficClasses && r.Flits[c] == 0 {
			continue
		}
		g.Flits[c.String()] = r.Flits[c]
	}
	if r.Stats != nil {
		for _, n := range r.Stats.Names() {
			g.Counters[n] = r.Stats.Get(n)
		}
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// UnmarshalReport parses a canonically serialized report back into a
// Report (Timeline excluded: timelines are not part of the canonical
// encoding). Unknown energy or traffic dimensions are an error — a
// report from a build with different dimensions must not silently
// round-trip. MarshalReport(UnmarshalReport(b)) reproduces b exactly.
func UnmarshalReport(data []byte) (Report, error) {
	var g reportJSON
	if err := json.Unmarshal(data, &g); err != nil {
		return Report{}, fmt.Errorf("denovogpu: parsing report: %w", err)
	}
	r := Report{
		Config:   g.Config,
		Workload: g.Workload,
		Cycles:   g.Cycles,
		Events:   g.Events,
	}
	seenE := 0
	for c := stats.Component(0); c < stats.NumComponents; c++ {
		if v, ok := g.EnergyPJ[c.String()]; ok {
			r.EnergyPJ[c] = v
			seenE++
		}
	}
	if seenE != len(g.EnergyPJ) {
		return Report{}, fmt.Errorf("denovogpu: report has %d unknown energy components %v", len(g.EnergyPJ)-seenE, unknownKeys(g.EnergyPJ))
	}
	seenF := 0
	for c := stats.TrafficClass(0); c < stats.NumTrafficClasses; c++ {
		if v, ok := g.Flits[c.String()]; ok {
			r.Flits[c] = v
			seenF++
		}
	}
	if seenF != len(g.Flits) {
		return Report{}, fmt.Errorf("denovogpu: report has %d unknown traffic classes", len(g.Flits)-seenF)
	}
	st := stats.New()
	st.Cycles = g.Cycles
	st.EnergyPJ = r.EnergyPJ
	st.Flits = r.Flits
	names := make([]string, 0, len(g.Counters))
	for n := range g.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st.Inc(n, g.Counters[n])
	}
	r.Stats = st
	return r, nil
}

func unknownKeys(m map[string]float64) []string {
	known := make(map[string]bool)
	for c := stats.Component(0); c < stats.NumComponents; c++ {
		known[c.String()] = true
	}
	var out []string
	for k := range m {
		if !known[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
