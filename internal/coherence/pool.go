package coherence

import "denovogpu/internal/sim"

// MsgPool is a free list of Msg structs, eliminating the per-message
// heap allocation that dominated the mesh traffic cost (~136 bytes per
// Send before pooling).
//
// Ownership discipline: a message belongs to its sender until Send,
// then to the receiving handler. The receiver returns it with Put once
// processing is complete — including any processing deferred behind a
// DRAM fetch — and must copy out anything it keeps longer (the
// controllers already copy messages they defer). Each component keeps
// its own private pool; free messages migrate between pools as traffic
// flows (an L1's request is freed into the bank's pool, the bank's
// response into the L1's), which needs no sharing or synchronization
// because every pool belongs to one single-threaded machine.
//
// The embedded Get returns a recycled message with the fields it had
// when it was Put (or a zero one when the pool is empty); NewMsg
// overwrites every field, so send sites use NewMsg. Put returns a
// message to the pool; the caller must not touch it afterwards.
//
// Not safe for concurrent use, exactly like the components that embed
// it.
type MsgPool struct {
	sim.FreeList[Msg]
}

// NewMsg returns a pooled message initialized to a copy of *v — a
// drop-in for &Msg{...} literals at send sites. v is taken by pointer
// so the message is copied once, not once into the argument and again
// into the pooled struct; a literal passed as v stays on the sender's
// stack.
func (p *MsgPool) NewMsg(v *Msg) *Msg {
	m := p.Get()
	*m = *v
	return m
}
