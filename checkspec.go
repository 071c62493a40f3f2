package denovogpu

// This file is the model-checking half of the cell surface in
// matrixspec.go: shards of a check cell (one litmus program ×
// configuration exploration, a CellSpec with Program set), the split
// into shard cells, and the canonical report/verdict encodings. The
// same determinism contract applies — a check cell's canonical report
// depends only on (code version, config, program, budget, shard),
// never on which worker ran it — so check results cache and
// distribute through exactly the same sweepd machinery as simulation
// cells.
//
// Reports vs verdicts: a *report* is one cell's full result, including
// its States count and its shard identity; per-shard States is
// deterministic, but the sum across shards differs between shard
// counts (different reductions prune differently). A *verdict* is the
// merged, shard-count-independent summary — program, config, outcome
// set, violation — and is byte-identical between a serial run and any
// sharded run of a clean program. (A violating program's verdict may
// differ in Detail/Trace between shardings: exploration order differs,
// so a different witness of the same broken invariant can be found
// first. The verdict's Invariant is still the deterministic merge of
// each deterministic per-shard result.)

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"denovogpu/internal/litmus"
	"denovogpu/internal/mcheck"
)

// CheckShard identifies one Unit of a sharded exploration: replay
// Prefix from the root, then run source-DPOR below the cut with Sleep
// as the inherited sleep set (see mcheck.Unit). Index is the unit's
// position in its SplitPlan — the merge's tie-break order.
type CheckShard struct {
	Index  int      `json:"index"`
	Prefix []uint32 `json:"prefix,omitempty"`
	Sleep  []uint32 `json:"sleep,omitempty"`
}

// LitmusProgramByName finds a catalog litmus program. Only catalog
// programs are addressable on the wire — a generated program has no
// stable name to key a cached result under.
func LitmusProgramByName(name string) (*litmus.Program, error) {
	for _, e := range litmus.Catalog() {
		if e.Program.Name == name {
			return e.Program, nil
		}
	}
	return nil, fmt.Errorf("denovogpu: unknown litmus program %q (want a catalog name; see LitmusProgramNames)", name)
}

// LitmusProgramNames lists the catalog programs, in catalog order.
func LitmusProgramNames() []string {
	var names []string
	for _, e := range litmus.Catalog() {
		names = append(names, e.Program.Name)
	}
	return names
}

// CheckConfigSpecs returns the full model-checking configuration set
// (mcheck.Configs: the litmus set plus the DH lazy-writes ablation) as
// wire specs — by name where ConfigByName resolves one, raw otherwise
// (the ablation has no addressable name).
func CheckConfigSpecs() []ConfigSpec {
	var out []ConfigSpec
	for _, cfg := range mcheck.Configs() {
		if _, err := ConfigByName(cfg.Name()); err == nil {
			out = append(out, ConfigSpec{Name: cfg.Name()})
		} else {
			out = append(out, ConfigSpec{Raw: &cfg})
		}
	}
	return out
}

// SplitCheckCell partitions a whole-exploration check cell into
// per-shard cells plus the split phase's own partial report (the top
// region's states, outcomes and any violation it found, as a shard-less
// CheckReport). When the returned cell list is empty — the split phase
// found a violation, or fully explored a tiny program — the partial
// report is already the cell's complete result. Otherwise the merge of
// the partial report followed by the per-shard reports, in order, is
// the cell's verdict (MergeCheckVerdict).
func SplitCheckCell(s CellSpec, shards int) ([]CellSpec, CheckReport, error) {
	r, err := s.resolve()
	switch {
	case err != nil:
		return nil, CheckReport{}, err
	case r.prog == nil:
		return nil, CheckReport{}, fmt.Errorf("denovogpu: splitting simulation cell %q; only check cells split", s.Workload)
	case s.Shard != nil:
		workload, _ := s.Label()
		return nil, CheckReport{}, fmt.Errorf("denovogpu: splitting an already-sharded check cell (%s)", workload)
	}
	plan, err := mcheck.Split(r.cfg, r.prog, r.opts, shards)
	if err != nil {
		return nil, CheckReport{}, err
	}
	base := CheckReport{
		Schema:    checkReportSchema,
		Program:   r.prog.Name,
		Config:    r.cfg.Name(),
		Budget:    r.opts.Budget,
		States:    plan.States,
		Outcomes:  sortedOutcomeKeys(plan.Outcomes),
		Violation: wireViolation(plan.Violation),
	}
	var cells []CellSpec
	for i, u := range plan.Units {
		c := s
		// Canonicalized so every shard of a cell keys against the same
		// budget as its siblings.
		c.Budget = r.opts.Budget
		c.Shard = &CheckShard{Index: i, Prefix: u.Prefix, Sleep: u.Sleep}
		cells = append(cells, c)
	}
	return cells, base, nil
}

// CheckViolation is a counterexample in wire form: the violated
// invariant, its description, the non-conformant outcome key (oracle
// conformance only) and the transition trace that reaches it.
type CheckViolation struct {
	Invariant string   `json:"invariant"`
	Detail    string   `json:"detail"`
	Outcome   string   `json:"outcome,omitempty"`
	Trace     []string `json:"trace,omitempty"`
}

// CheckReport is one check cell's full result in canonical wire form.
// Outcomes holds sorted outcome keys (litmus.Outcome.Key); States is
// per-cell deterministic but shard-count-dependent in aggregate, which
// is why it lives in the report and not the verdict.
type CheckReport struct {
	Schema    string          `json:"schema"`
	Program   string          `json:"program"`
	Config    string          `json:"config"`
	Budget    int             `json:"budget"`
	Shard     *CheckShard     `json:"shard,omitempty"`
	States    int             `json:"states"`
	Outcomes  []string        `json:"outcomes"`
	Violation *CheckViolation `json:"violation"`
}

// checkReportSchema versions the report encoding.
const checkReportSchema = "denovogpu-checkreport/v2"

// checkVerdictSchema versions the verdict encoding.
const checkVerdictSchema = "denovogpu-checkverdict/v2"

// MarshalCheckReport serializes a report canonically (the cache
// payload and sweepd report-endpoint format for check cells): two byte
// slices are equal iff the explorations they came from agreed exactly.
func MarshalCheckReport(r CheckReport) ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// UnmarshalCheckReport parses canonical check-report bytes, rejecting
// other schemas — a simulation report or future encoding must not
// silently round-trip through the checker's merge.
func UnmarshalCheckReport(data []byte) (CheckReport, error) {
	var r CheckReport
	if err := json.Unmarshal(data, &r); err != nil {
		return CheckReport{}, fmt.Errorf("denovogpu: parsing check report: %w", err)
	}
	if r.Schema != checkReportSchema {
		return CheckReport{}, fmt.Errorf("denovogpu: check report schema %q, want %q", r.Schema, checkReportSchema)
	}
	return r, nil
}

// check explores a resolved check cell — the whole exploration on
// every core (mcheck.Check), or the given shard of it serially — and
// returns its canonical report bytes plus the states count.
func (r resolvedCell) check(shard *CheckShard) ([]byte, uint64, error) {
	var res *mcheck.Result
	var err error
	if shard != nil {
		res, err = mcheck.CheckShard(r.cfg, r.prog, r.opts, mcheck.Unit{Prefix: shard.Prefix, Sleep: shard.Sleep})
	} else {
		res, err = mcheck.Check(r.cfg, r.prog, r.opts)
	}
	if err != nil {
		return nil, 0, err
	}
	data, err := MarshalCheckReport(CheckReport{
		Schema:    checkReportSchema,
		Program:   r.prog.Name,
		Config:    r.cfg.Name(),
		Budget:    r.opts.Budget,
		Shard:     shard,
		States:    res.States,
		Outcomes:  sortedOutcomeKeys(res.Outcomes),
		Violation: wireViolation(res.Violation),
	})
	if err != nil {
		return nil, 0, err
	}
	return data, uint64(res.States), nil
}

func sortedOutcomeKeys(outcomes map[string]litmus.Outcome) []string {
	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func wireViolation(v *mcheck.Violation) *CheckViolation {
	if v == nil {
		return nil
	}
	w := &CheckViolation{Invariant: v.Invariant, Detail: v.Detail, Trace: v.Trace}
	if v.Observed != nil {
		w.Outcome = v.Observed.Key()
	}
	return w
}

// CheckVerdict is the shard-count-independent summary of one checked
// (program, configuration) cell.
type CheckVerdict struct {
	Schema    string          `json:"schema"`
	Program   string          `json:"program"`
	Config    string          `json:"config"`
	Budget    int             `json:"budget"`
	Outcomes  []string        `json:"outcomes"`
	Violation *CheckViolation `json:"violation"`
}

// MergeCheckVerdict merges per-shard reports (in unit order; a serial
// run is the one-report case) into the cell's verdict: outcome keys
// unioned and sorted, the first report's violation winning (lowest
// shard index — sweepd's deterministic error convention). States is
// deliberately absent: per-shard totals are deterministic, their sum
// across shard counts is not, and the verdict is the artifact pinned
// byte-for-byte against a serial run. Reports must agree on program,
// config and budget.
func MergeCheckVerdict(reports []CheckReport) (CheckVerdict, error) {
	if len(reports) == 0 {
		return CheckVerdict{}, fmt.Errorf("denovogpu: merging zero check reports")
	}
	v := CheckVerdict{
		Schema:  checkVerdictSchema,
		Program: reports[0].Program,
		Config:  reports[0].Config,
		Budget:  reports[0].Budget,
	}
	union := make(map[string]bool)
	for i, r := range reports {
		if r.Program != v.Program || r.Config != v.Config || r.Budget != v.Budget {
			return CheckVerdict{}, fmt.Errorf("denovogpu: check report %d (%s under %s, budget %d) does not belong to cell %s under %s, budget %d",
				i, r.Program, r.Config, r.Budget, v.Program, v.Config, v.Budget)
		}
		for _, k := range r.Outcomes {
			union[k] = true
		}
		if v.Violation == nil && r.Violation != nil {
			v.Violation = r.Violation
		}
	}
	v.Outcomes = make([]string, 0, len(union))
	for k := range union {
		v.Outcomes = append(v.Outcomes, k)
	}
	sort.Strings(v.Outcomes)
	return v, nil
}

// MarshalCheckVerdict serializes a verdict canonically; for a clean
// program these bytes are identical between a serial run and any
// sharding, at any worker count.
func MarshalCheckVerdict(v CheckVerdict) ([]byte, error) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// CheckVerdictFileName is the canonical artifact name for one cell's
// verdict ("+" appears in both program and config names and is not
// filesystem-friendly).
func CheckVerdictFileName(program, config string) string {
	return "check_" + ReportFileName(strings.ReplaceAll(program, "+", "-"), config)
}
