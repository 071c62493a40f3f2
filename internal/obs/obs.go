// Package obs is the simulator's observability layer: a ring-buffered
// recorder of typed protocol events (exported as Chrome trace_event
// JSON, so a run opens directly in chrome://tracing or Perfetto, or as
// one text line per event for grep and sort) and an epoch sampler
// capturing time-series metrics (MSHR occupancy, store-buffer depth,
// per-link NoC utilization, outstanding registrations) into a compact
// columnar series.
//
// The package is deliberately dependency-free: timestamps come from a
// caller-supplied clock closure and tracks are plain integers, so every
// layer of the simulator (cache, l2, noc, denovo, gpucoh, gpu) can emit
// events without import cycles.
//
// Cost contract: observability is zero-cost when disabled. Components
// hold a *Recorder that is nil by default and guard every emission site
// with a `rec != nil` branch, so a run without observability executes
// the exact event sequence — and allocates exactly as much — as a build
// without the hooks. With a recorder installed, Emit appends one fixed
// size Event to a preallocated ring (no per-event allocation); when the
// ring wraps, the oldest events are dropped and counted, keeping the
// memory bound independent of run length. DESIGN.md "Observability"
// documents the hook-point contract.
package obs

import "fmt"

// Kind is the type of one recorded event.
type Kind uint8

// Event kinds. The Domain mapping below decides which Perfetto track
// group (process) each kind renders under.
const (
	KindNone Kind = iota

	// L1 controller events (track = CU/node id).
	L1ReadHit
	L1ReadMiss
	L1WriteHit
	L1SyncHit
	L1SyncMiss
	L1Writeback
	SyncAcquire
	SyncRelease

	// Store-buffer events (track = CU/node id).
	SBInsert
	SBCoalesce
	SBDrain
	SBEvict

	// Warp/TB stall spans (track = CU/node id).
	StallMem
	StallSync

	// L2 bank events (track = bank/node id).
	L2Read
	L2ReadForward
	L2WriteThrough
	L2Registration
	L2RegForward
	L2WriteBack
	L2Atomic

	// NoC events (track = link id, node*4+direction).
	NoCFlitHop

	numKinds
)

var kindNames = [numKinds]string{
	KindNone:       "none",
	L1ReadHit:      "l1.read_hit",
	L1ReadMiss:     "l1.read_miss",
	L1WriteHit:     "l1.write_hit",
	L1SyncHit:      "l1.sync_hit",
	L1SyncMiss:     "l1.sync_miss",
	L1Writeback:    "l1.writeback",
	SyncAcquire:    "sync.acquire",
	SyncRelease:    "sync.release",
	SBInsert:       "sb.insert",
	SBCoalesce:     "sb.coalesce",
	SBDrain:        "sb.drain",
	SBEvict:        "sb.evict",
	StallMem:       "stall.mem",
	StallSync:      "stall.sync",
	L2Read:         "l2.read",
	L2ReadForward:  "l2.read_forward",
	L2WriteThrough: "l2.writethrough",
	L2Registration: "l2.registration",
	L2RegForward:   "l2.reg_forward",
	L2WriteBack:    "l2.writeback",
	L2Atomic:       "l2.atomic",
	NoCFlitHop:     "noc.flit_hop",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "kind?"
}

// Domain groups tracks into Perfetto processes: one per hardware layer.
type Domain uint8

const (
	DomainCU  Domain = iota // private L1s, store buffers, warp stalls
	DomainL2                // shared L2 banks
	DomainNoC               // mesh links

	numDomains
)

func (d Domain) String() string {
	switch d {
	case DomainCU:
		return "CU"
	case DomainL2:
		return "L2 bank"
	case DomainNoC:
		return "NoC link"
	default:
		return "domain?"
	}
}

// DomainOf maps an event kind to its track domain.
func DomainOf(k Kind) Domain {
	switch {
	case k >= L2Read && k <= L2Atomic:
		return DomainL2
	case k == NoCFlitHop:
		return DomainNoC
	default:
		return DomainCU
	}
}

// Event is one recorded observation. Events are fixed-size values so the
// ring buffer never allocates after construction.
type Event struct {
	// At is the simulation cycle the event occurred (for spans, began).
	At uint64
	// Dur is the span length in cycles; 0 renders as an instant event.
	Dur uint64
	// Arg is kind-specific payload: a line address for cache events, a
	// word/entry count for bulk events, the flit count for NoC hops.
	Arg uint64
	// Track is the emitting unit within the kind's domain: CU node, L2
	// bank node, or link index.
	Track int32
	// Kind is the event type.
	Kind Kind
}

// isSpan reports whether the exporters render e as a span: any event
// with a duration, plus the kinds whose zero-length occurrences are
// still occupancy windows (flit hops, stalls).
func (e *Event) isSpan() bool {
	return e.Dur > 0 || e.Kind == NoCFlitHop || e.Kind == StallMem || e.Kind == StallSync
}

// Recorder is a bounded, allocation-free event recorder. The zero value
// is not usable; create recorders with NewRecorder. A nil *Recorder is
// the disabled state: components must guard emission with a nil check
// (the documented fast path), and the exported methods also tolerate a
// nil receiver so cold paths may call them unconditionally.
type Recorder struct {
	now   func() uint64
	buf   []Event
	next  int  // next slot to write
	wrap  bool // buf has wrapped at least once
	total uint64

	names map[trackKey]string
}

type trackKey struct {
	domain Domain
	track  int32
}

// DefaultCapacity is the ring size NewRecorder uses when given a
// non-positive capacity: 1M events ≈ 32 MB, enough to hold the full
// trace of every microbenchmark and the tail window of a long run.
const DefaultCapacity = 1 << 20

// NewRecorder returns a recorder reading timestamps from now (typically
// the simulation engine's clock) holding at most capacity events.
func NewRecorder(now func() uint64, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		now:   now,
		buf:   make([]Event, 0, capacity),
		names: make(map[trackKey]string),
	}
}

// Emit records an instant event at the current cycle.
func (r *Recorder) Emit(k Kind, track int32, arg uint64) {
	if r == nil {
		return
	}
	r.push(Event{At: r.now(), Kind: k, Track: track, Arg: arg})
}

// EmitSpan records a span that began at cycle start and ends now.
func (r *Recorder) EmitSpan(k Kind, track int32, arg, start uint64) {
	if r == nil {
		return
	}
	end := r.now()
	r.push(Event{At: start, Dur: end - start, Kind: k, Track: track, Arg: arg})
}

// EmitAt records an event with an explicit timestamp and duration, for
// emitters that know occupancy windows ahead of time (NoC link claims).
func (r *Recorder) EmitAt(k Kind, track int32, arg, at, dur uint64) {
	if r == nil {
		return
	}
	r.push(Event{At: at, Dur: dur, Kind: k, Track: track, Arg: arg})
}

func (r *Recorder) push(e Event) {
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.wrap = true
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
}

// NameTrack attaches a human-readable label to a (domain, track) pair,
// rendered as the Perfetto thread name. Safe on a nil recorder.
func (r *Recorder) NameTrack(d Domain, track int32, name string) {
	if r == nil {
		return
	}
	r.names[trackKey{d, track}] = name
}

// TrackName returns the label registered for a (domain, track) pair, or
// the generated fallback "<domain> <track>" (e.g. "CU 3"). Every
// exporter names tracks through it.
func (r *Recorder) TrackName(d Domain, track int32) string {
	if r != nil {
		if n, ok := r.names[trackKey{d, track}]; ok {
			return n
		}
	}
	return fmt.Sprintf("%s %d", d, track)
}

// Len returns the number of events currently held (≤ capacity).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Total returns the number of events emitted over the recorder's life,
// including any that have been overwritten.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.total - uint64(len(r.buf))
}

// Events returns the held events in emission order (oldest first). The
// returned slice is freshly allocated; mutating it does not affect the
// recorder.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.buf))
	if r.wrap && r.next < len(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
		return out
	}
	return append(out, r.buf...)
}
