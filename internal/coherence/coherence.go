// Package coherence defines the vocabulary shared by both coherence
// protocols: synchronization scopes and orders, atomic operations, and
// the message types exchanged between L1 controllers and L2 banks over
// the mesh.
//
// The two protocol implementations (internal/gpucoh, internal/denovo)
// speak overlapping subsets of this vocabulary; the L2 bank
// (internal/l2) implements the bank-side behaviour for both.
package coherence

import (
	"fmt"

	"denovogpu/internal/mem"
	"denovogpu/internal/noc"
	"denovogpu/internal/stats"
)

// Scope is an HRF synchronization scope. In our two-level hierarchy
// there are exactly two scopes, matching the paper: a CU's L1 (shared by
// the thread blocks on that CU) and the global L2 (shared by everyone).
// Under the DRF configurations every synchronization is treated as
// ScopeGlobal regardless of the annotation.
type Scope int

const (
	// ScopeGlobal synchronizes all CUs and the CPU through the L2.
	ScopeGlobal Scope = iota
	// ScopeLocal synchronizes only the thread blocks of one CU through
	// its L1.
	ScopeLocal
)

func (s Scope) String() string {
	if s == ScopeLocal {
		return "local"
	}
	return "global"
}

// Order is the memory-order attribute of a synchronization access under
// DRF/HRF: a synchronization read is an acquire, a synchronization
// write is a release, and a read-modify-write is both. The paper does
// not allow relaxed atomics (Section 5.3); OrderRelaxed is the
// extension from the follow-up work (Salvador et al.) for graph
// analytics: the atomic is still a single indivisible RMW, but it
// orders nothing around it — no flash/self-invalidation on the way in,
// no store-buffer flush on the way out.
type Order int

const (
	OrderAcquire Order = iota
	OrderRelease
	OrderAcqRel
	OrderRelaxed
)

// Acquires reports whether the order includes acquire semantics.
func (o Order) Acquires() bool { return o == OrderAcquire || o == OrderAcqRel }

// Releases reports whether the order includes release semantics.
func (o Order) Releases() bool { return o == OrderRelease || o == OrderAcqRel }

func (o Order) String() string {
	switch o {
	case OrderAcquire:
		return "acquire"
	case OrderRelease:
		return "release"
	case OrderRelaxed:
		return "relaxed"
	default:
		return "acq_rel"
	}
}

// AtomicOp is the RMW (or sync read/write) operation performed by a
// synchronization access.
type AtomicOp int

const (
	// AtomicLoad is a synchronization read (returns the value).
	AtomicLoad AtomicOp = iota
	// AtomicStore is a synchronization write (stores Operand).
	AtomicStore
	// AtomicAdd adds Operand, returns the old value.
	AtomicAdd
	// AtomicExch stores Operand, returns the old value.
	AtomicExch
	// AtomicCAS stores Operand if current == Operand2, returns the old value.
	AtomicCAS
	// AtomicMin stores min(current, Operand), returns the old value.
	AtomicMin
	// AtomicMax stores max(current, Operand), returns the old value.
	AtomicMax
)

func (op AtomicOp) String() string {
	switch op {
	case AtomicLoad:
		return "load"
	case AtomicStore:
		return "store"
	case AtomicAdd:
		return "add"
	case AtomicExch:
		return "exch"
	case AtomicCAS:
		return "cas"
	case AtomicMin:
		return "min"
	case AtomicMax:
		return "max"
	default:
		return fmt.Sprintf("AtomicOp(%d)", int(op))
	}
}

// Apply executes the operation against a current value, returning the
// new value to store and the value returned to the program (the old
// value, or for AtomicLoad the current value).
func (op AtomicOp) Apply(cur, operand, operand2 uint32) (next, ret uint32) {
	switch op {
	case AtomicLoad:
		return cur, cur
	case AtomicStore:
		return operand, cur
	case AtomicAdd:
		return cur + operand, cur
	case AtomicExch:
		return operand, cur
	case AtomicCAS:
		if cur == operand2 {
			return operand, cur
		}
		return cur, cur
	case AtomicMin:
		if operand < cur {
			return operand, cur
		}
		return cur, cur
	case AtomicMax:
		if operand > cur {
			return operand, cur
		}
		return cur, cur
	default:
		panic(fmt.Sprintf("coherence: unknown atomic op %d", int(op)))
	}
}

// WritesBack reports whether applying the operation performed a memory
// write: a synchronization load never writes (treating its read value
// as a store would let it clobber a concurrent writer's update), and a
// conditional RMW (CAS, min, max) writes only when it changed the
// value.
func (op AtomicOp) WritesBack(cur, next uint32) bool {
	switch op {
	case AtomicLoad:
		return false
	case AtomicStore, AtomicExch, AtomicAdd:
		return true
	default:
		return next != cur
	}
}

// MsgKind enumerates the protocol messages.
type MsgKind int

const (
	// ReadReq asks the L2 bank for the words of a line (GPU: whole
	// line; DeNovo: the bank returns the words it has and forwards for
	// registered ones).
	ReadReq MsgKind = iota
	// ReadResp returns line data to the requester.
	ReadResp
	// ReadFwd forwards a read to the L1 currently registered for some
	// of the requested words (DeNovo only).
	ReadFwd
	// WriteThrough carries dirty words to the L2 (GPU protocol).
	WriteThrough
	// WriteThroughAck acknowledges a writethrough.
	WriteThroughAck
	// RegReq asks the registry for ownership of words (DeNovo).
	RegReq
	// RegAck grants ownership, with current data values for the words.
	RegAck
	// RegFwd tells the previous owner to pass ownership (and data)
	// directly to the new requester (DeNovo).
	RegFwd
	// RegXfer carries ownership and data from the previous owner to the
	// new owner (DeNovo).
	RegXfer
	// WriteBack returns owned dirty words to the L2 on eviction (DeNovo).
	WriteBack
	// WriteBackAck acknowledges a writeback.
	WriteBackAck
	// AtomicReq performs a remote atomic at the L2 bank (GPU protocol).
	AtomicReq
	// AtomicResp returns the atomic's result.
	AtomicResp
)

func (k MsgKind) String() string {
	names := [...]string{"ReadReq", "ReadResp", "ReadFwd", "WriteThrough", "WriteThroughAck",
		"RegReq", "RegAck", "RegFwd", "RegXfer", "WriteBack", "WriteBackAck", "AtomicReq", "AtomicResp"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("MsgKind(%d)", int(k))
}

// Msg is a coherence message. One struct covers all kinds; unused
// fields are zero. Msgs are routed by the mesh via the Packet interface.
type Msg struct {
	Kind MsgKind
	Src  noc.NodeID
	Dst  noc.NodeID
	Port noc.Port

	Line mem.Line
	Mask mem.WordMask // words requested / carried / granted
	Data [mem.WordsPerLine]uint32

	// Requester is the node on whose behalf a forward travels; the
	// response goes directly there (3-hop transactions).
	Requester noc.NodeID

	// Atomic payload (AtomicReq/AtomicResp, and sync registrations).
	Op       AtomicOp
	WordIdx  int // which word of Line the atomic targets
	Operand  uint32
	Operand2 uint32
	Result   uint32

	// Sync marks registration messages that implement synchronization
	// accesses (DeNovoSync0 registers sync reads and writes); they are
	// classified as atomic traffic, like the paper's figures do.
	Sync bool

	// NeedsData marks registrations that must return the word's current
	// value (sync RMWs). Data-write registrations overwrite the whole
	// word, so their acks are pure control messages — part of DeNovo's
	// traffic advantage.
	NeedsData bool

	// WBAccepted is the subset of a WriteBack's words the registry
	// accepted (it rejects words whose ownership had already moved on;
	// the evicting L1 then keeps its victim copy until the in-flight
	// forward arrives).
	WBAccepted mem.WordMask

	// ID matches responses to outstanding requests.
	ID uint64
}

// NocRoute implements noc.Packet in a single dynamic dispatch.
func (m *Msg) NocRoute() noc.Route {
	return noc.Route{Src: m.Src, Dst: m.Dst, Port: m.Port, Class: m.NocClass(), PayloadBytes: m.PayloadBytes()}
}

// NocClass classifies traffic the way the paper's figures do.
func (m *Msg) NocClass() stats.TrafficClass {
	switch m.Kind {
	case ReadReq, ReadResp, ReadFwd:
		return stats.TrafficRead
	case RegReq, RegAck, RegFwd, RegXfer:
		if m.Sync {
			return stats.TrafficAtomic
		}
		return stats.TrafficRegistration
	case WriteThrough, WriteThroughAck, WriteBack, WriteBackAck:
		return stats.TrafficWBWT
	case AtomicReq, AtomicResp:
		return stats.TrafficAtomic
	default:
		return stats.TrafficRead
	}
}

// PayloadBytes reports the message's data payload. Control messages
// carry nothing beyond the header; data-bearing messages carry 4 bytes
// per word moved.
// This is where DeNovo's decoupled transfer granularity pays off on the
// wire: a response carries only the words it actually moves.
func (m *Msg) PayloadBytes() int {
	switch m.Kind {
	case ReadResp, RegXfer, WriteThrough, WriteBack:
		return m.Mask.Count() * mem.WordBytes
	case RegAck:
		// Ownership grant carries current values for the granted words
		// only when the requester needs them (sync RMW); data writes
		// overwrite whole words so their grants are control messages.
		if m.NeedsData {
			return m.Mask.Count() * mem.WordBytes
		}
		return 0
	case AtomicReq:
		return 8 // operands
	case AtomicResp:
		return 4 // result
	default:
		return 0
	}
}
