package denovogpu

// This file is the model-checking half of the cell surface in
// matrixspec.go: a check cell (one litmus program × configuration
// exploration, a CellSpec with Program set) and its canonical report
// encoding. The same determinism contract applies — a check cell's
// canonical report depends only on (code version, config, program,
// budget), never on which worker ran it or how many cores its
// mcheck.Check used — so check results cache and distribute through
// exactly the same sweepd machinery as simulation cells, and one
// report, States included, is the whole answer for a cell whether it
// ran in-process or on a worker.

import (
	"encoding/json"
	"fmt"
	"sort"

	"denovogpu/internal/litmus"
	"denovogpu/internal/mcheck"
)

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
// the nodes mcheck.Check explored, the same at every worker count.
type CheckReport struct {
	Schema    string          `json:"schema"`
	Program   string          `json:"program"`
	Config    string          `json:"config"`
	Budget    int             `json:"budget"`
	States    int             `json:"states"`
	Outcomes  []string        `json:"outcomes"`
	Violation *CheckViolation `json:"violation"`
}

// checkReportSchema versions the report encoding.
const checkReportSchema = "denovogpu-checkreport/v2"

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
// silently pass for a check result.
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

// check explores a resolved check cell with mcheck.Check on every core
// and returns its canonical report bytes plus the states count.
func (r resolvedCell) check() ([]byte, uint64, error) {
	res, err := mcheck.Check(r.cfg, r.prog, r.opts)
	if err != nil {
		return nil, 0, err
	}
	data, err := MarshalCheckReport(CheckReport{
		Schema:    checkReportSchema,
		Program:   r.prog.Name,
		Config:    r.cfg.Name(),
		Budget:    r.opts.Budget,
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
