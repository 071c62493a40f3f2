// Package litmus is the memory-consistency conformance layer: a small
// litmus-program representation, an executable oracle that enumerates
// the outcomes permitted under the machine's two consistency models
// (DRF-SC and HRF-Indirect), a deterministic randomized program
// generator, a differential runner that executes programs under the
// paper's five configurations through internal/machine, and
// a shrinker that reduces any violating program to a minimal
// counterexample.
//
// A litmus program is a handful of straight-line threads of memory
// operations over a few variables. Each thread is pinned to a compute
// unit, so programs can exercise the difference between locally and
// globally scoped synchronization (threads on one CU share an L1).
// Variables are typed: a data variable is only ever accessed with plain
// loads and stores, a sync variable only with synchronization accesses
// — the same discipline the DRF and HRF models demand of real programs,
// and the one the paper's benchmarks follow.
package litmus

import (
	"encoding/json"
	"fmt"
	"strings"

	"denovogpu/internal/coherence"
)

// VarClass types a litmus variable.
type VarClass int

const (
	// Data variables are accessed only by plain loads and stores.
	Data VarClass = iota
	// Sync variables are accessed only by synchronization operations.
	Sync
)

func (c VarClass) String() string {
	if c == Sync {
		return "sync"
	}
	return "data"
}

// OpKind is one litmus operation.
type OpKind int

const (
	// OpLoad is a plain data load; it records the loaded value.
	OpLoad OpKind = iota
	// OpStore is a plain data store of Val.
	OpStore
	// OpSyncLoad is a synchronization read (acquire); it records the
	// loaded value.
	OpSyncLoad
	// OpSyncStore is a synchronization write (release) of Val.
	OpSyncStore
	// OpSyncAdd is a fetch-and-add of Val (acquire+release); it records
	// the old value.
	OpSyncAdd
)

func (k OpKind) String() string {
	switch k {
	case OpLoad:
		return "ld"
	case OpStore:
		return "st"
	case OpSyncLoad:
		return "sync.ld"
	case OpSyncStore:
		return "sync.st"
	case OpSyncAdd:
		return "sync.add"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// IsSync reports whether the operation is a synchronization access.
func (k OpKind) IsSync() bool { return k == OpSyncLoad || k == OpSyncStore || k == OpSyncAdd }

// Records reports whether the operation yields a value recorded in the
// program's outcome (a load result or an RMW's old value).
func (k OpKind) Records() bool { return k == OpLoad || k == OpSyncLoad || k == OpSyncAdd }

// Op is one operation of a litmus thread.
type Op struct {
	Kind OpKind
	// Var indexes Program.Vars.
	Var int
	// Val is the stored value (OpStore, OpSyncStore) or addend (OpSyncAdd).
	Val uint32 `json:",omitempty"`
	// Scope annotates synchronization operations. DRF configurations
	// ignore it (treat it as global); HRF configurations honor it.
	Scope coherence.Scope `json:",omitempty"`
}

func (o Op) String() string {
	v := fmt.Sprintf("v%d", o.Var)
	switch o.Kind {
	case OpLoad:
		return fmt.Sprintf("r = %s", v)
	case OpStore:
		return fmt.Sprintf("%s = %d", v, o.Val)
	case OpSyncLoad:
		return fmt.Sprintf("r = acq(%s, %s)", v, o.Scope)
	case OpSyncStore:
		return fmt.Sprintf("rel(%s, %d, %s)", v, o.Val, o.Scope)
	case OpSyncAdd:
		return fmt.Sprintf("r = add(%s, %d, %s)", v, o.Val, o.Scope)
	default:
		return fmt.Sprintf("?%d", int(o.Kind))
	}
}

// Thread is one straight-line litmus thread, pinned to a CU.
type Thread struct {
	// CU is the compute unit the thread runs on; threads with the same
	// CU share an L1 (and an HRF local scope).
	CU  int
	Ops []Op
}

// Program is a complete litmus test. The zero value of every variable
// is 0; stores should use distinct nonzero values so outcomes identify
// which write a read observed.
type Program struct {
	Name    string `json:",omitempty"`
	Vars    []VarClass
	Threads []Thread
}

// NumOps is the total operation count across threads.
func (p *Program) NumOps() int {
	n := 0
	for _, t := range p.Threads {
		n += len(t.Ops)
	}
	return n
}

// MaxSlotPerCU returns, per CU used, how many threads the program pins
// there (the machine must keep that many blocks resident).
func (p *Program) MaxSlotPerCU() map[int]int {
	slots := make(map[int]int)
	for _, t := range p.Threads {
		slots[t.CU]++
	}
	return slots
}

// Validate checks the program's internal consistency: variable indices
// in range, variable classes respected, CU indices non-negative.
func (p *Program) Validate() error {
	if len(p.Threads) == 0 {
		return fmt.Errorf("litmus: program %q has no threads", p.Name)
	}
	for ti, t := range p.Threads {
		if t.CU < 0 {
			return fmt.Errorf("litmus: thread %d has negative CU %d", ti, t.CU)
		}
		for oi, op := range t.Ops {
			if op.Var < 0 || op.Var >= len(p.Vars) {
				return fmt.Errorf("litmus: thread %d op %d: variable v%d out of range", ti, oi, op.Var)
			}
			class := p.Vars[op.Var]
			if op.Kind.IsSync() && class != Sync {
				return fmt.Errorf("litmus: thread %d op %d: %v on data variable v%d", ti, oi, op.Kind, op.Var)
			}
			if !op.Kind.IsSync() && class != Data {
				return fmt.Errorf("litmus: thread %d op %d: %v on sync variable v%d", ti, oi, op.Kind, op.Var)
			}
		}
	}
	return nil
}

func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (vars:", p.Name)
	for i, c := range p.Vars {
		fmt.Fprintf(&b, " v%d=%s", i, c)
	}
	b.WriteString(")\n")
	for ti, t := range p.Threads {
		fmt.Fprintf(&b, "  T%d@CU%d:", ti, t.CU)
		for _, op := range t.Ops {
			fmt.Fprintf(&b, " {%s}", op)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Clone deep-copies the program (shrinking mutates copies).
func (p *Program) Clone() *Program {
	q := &Program{Name: p.Name, Vars: append([]VarClass(nil), p.Vars...)}
	for _, t := range p.Threads {
		q.Threads = append(q.Threads, Thread{CU: t.CU, Ops: append([]Op(nil), t.Ops...)})
	}
	return q
}

// Outcome is one observable result of a program: the values recorded by
// each thread's value-returning operations (in program order) and the
// final value of every variable after the kernel completes.
type Outcome struct {
	Loads [][]uint32
	Final []uint32
}

// Key canonicalizes the outcome for set membership.
func (o Outcome) Key() string {
	var b strings.Builder
	for ti, ls := range o.Loads {
		if ti > 0 {
			b.WriteByte('/')
		}
		for i, v := range ls {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", v)
		}
	}
	b.WriteByte('|')
	for i, v := range o.Final {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// Schedule is a timing perturbation: Delay[thread][op] idle cycles are
// inserted before the thread issues that operation. Different schedules
// expose different interleavings of the same program.
type Schedule [][]int

// ZeroSchedule returns the no-delay schedule for p.
func ZeroSchedule(p *Program) Schedule {
	s := make(Schedule, len(p.Threads))
	for i, t := range p.Threads {
		s[i] = make([]int, len(t.Ops))
	}
	return s
}

// Clone deep-copies the schedule.
func (s Schedule) Clone() Schedule {
	c := make(Schedule, len(s))
	for i, d := range s {
		c[i] = append([]int(nil), d...)
	}
	return c
}

// Case is a replayable litmus run: a program, the schedule that
// exposed the behavior, the configuration it ran under, and whether the
// test-only acquire fault was injected. The litmus CLI serializes
// violating cases to JSON so they can be replayed with -replay.
type Case struct {
	Config   string
	Fault    bool `json:",omitempty"`
	Program  *Program
	Schedule Schedule
	// Observed is the outcome that violated the oracle (informational).
	Observed *Outcome `json:",omitempty"`
}

// MarshalIndent renders the case as replayable JSON.
func (c *Case) MarshalIndent() ([]byte, error) { return json.MarshalIndent(c, "", "  ") }

// ParseCase parses a JSON case.
func ParseCase(data []byte) (*Case, error) {
	var c Case
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("litmus: bad case: %w", err)
	}
	if c.Program == nil {
		return nil, fmt.Errorf("litmus: case has no program")
	}
	if err := c.Program.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}
