package mcheck

import (
	"fmt"
	"math/bits"
)

// The machine-readable invariant suite. Every explored state holds
// each named invariant: the explorers check the root, every terminal
// state and every split-phase node in full, and the DPOR explorer
// checks any other state only over the variables and CUs its
// transition's footprint names (checkInvariantsOver). That is exact by
// induction: the parent held every invariant, each invariant reads one
// variable's or one CU's state, and a transition changes nothing outside
// its footprint (TestFootprintCoversTransitionWrites), so a violation
// can only appear inside it. The same names are used by the runtime
// sanitizer's quiesced-state checks so a model-checker counterexample
// and a simulator assertion failure read the same way.

// Invariant names a protocol invariant and documents what it protects.
type Invariant struct {
	Name string
	Doc  string
}

// Invariants returns the full suite in checking order.
func Invariants() []Invariant {
	return []Invariant{
		{"swmr-registration", "per word, at most one L1 holds it registered; ownership transfers through the registry are never duplicated"},
		{"sb-fifo", "the store buffer holds at most one coalesced slot per word, in insertion order"},
		{"lazy-reg-exclusive", "a word is never both lazily delayed and mid-registration: a registration in flight must absorb the delayed slot, or release-time kicks would issue a duplicate request and orphan the first transaction's waiters"},
		{"lazy-orphan", "every lazily delayed word has a buffered write backing it"},
		{"wt-balance", "per CU and word, the outstanding-writethrough count equals the writethroughs and acks in flight; no ack is lost or duplicated"},
		{"reg-single", "per CU and word, exactly one registration token (request, ack, forward, transfer, or deferred forward) is in flight iff a registration is pending"},
		{"dirty-protocol", "dirty L1 words exist only under the GPU protocol with HRF partial blocks; registered words only under DeNovo"},
		{"l2-agreement", "for quiescent words, the registry's owner and the L1s' registered state agree exactly"},
		{"protocol-mixing", "the home never applies a writethrough or remote atomic to a registered word"},
		{"wb-lost", "every writeback ack finds its victim copy; no registered data is dropped"},
		{"deadlock", "a non-terminal state always has an enabled transition (no lost wakeups, no stranded requests)"},
		{"oracle-conformance", "every reachable terminal outcome is permitted by the consistency model's oracle"},
		{"phase-drain", "after a phase-transition drain, the registry holds no registered words and every outgoing L1 is quiesced and clean — no ownership, buffered write, or non-read-only valid word survives a protocol switch (the model explores one protocol per run, so this is enforced by the runtime sanitizer at every switch rather than by state exploration)"},
	}
}

// checkInvariants validates the stateful invariants on s, returning
// the violated invariant's name and a detail string, or "" if all
// hold. (protocol-mixing, wb-lost, reg-single delivery hazards, and
// deadlock are detected where they occur, in the transition
// application and the explorer.)
func (m *model) checkInvariants(s *state) (string, string) {
	return m.checkInvariantsOver(s, 1<<m.nv-1, 1<<m.nc-1)
}

// checkInvariantsOver checks the invariants of the variables in mask
// vm and the CUs in mask cm, in checkInvariants' order, so it reports
// the violation checkInvariants would whenever every violation of s
// lies inside the masks. Each invariant reads one variable's
// projection — its word state and mask bits in every CU, its memory
// word and owner, and the messages about it — or one CU's store buffer
// and lazy/registration masks. A state whose parent held every
// invariant and that differs from it only on the variables and CUs its
// transition's footprint names (touched) can therefore break one only
// inside those masks.
func (m *model) checkInvariantsOver(s *state, vm, cm uint8) (string, string) {
	// The per-variable walk over the L1s also gathers what reg-single
	// and l2-agreement need from them: each word's registered holder, the
	// words some L1 has a registration, victim copy or deferred forward
	// for, and the registration token a deferred forward holds for its
	// requester (inflight, which the message pass below completes).
	var (
		inflight [maxCUs][maxVars]uint8
		regCU    [maxVars]int8
		held     uint8
	)
	// swmr-registration / dirty-protocol.
	for vs := vm; vs != 0; vs &= vs - 1 {
		v := bits.TrailingZeros8(vs)
		ownerCU := -1
		for ci := 0; ci < m.nc; ci++ {
			cu := &s.cus[ci]
			switch cu.st[v] {
			case wReg:
				if m.cfg.proto != protoDeNovo {
					return "dirty-protocol", fmt.Sprintf("cu%d holds %s registered under a non-DeNovo protocol", ci, vname(v))
				}
				if ownerCU >= 0 {
					return "swmr-registration", fmt.Sprintf("cu%d and cu%d both hold %s registered", ownerCU, ci, vname(v))
				}
				ownerCU = ci
			case wDirty:
				if m.cfg.proto != protoGPU || !m.cfg.partial {
					return "dirty-protocol", fmt.Sprintf("cu%d holds %s dirty outside GPU partial-block mode", ci, vname(v))
				}
			}
			if d := cu.defFwd[v]; d != 0 {
				inflight[d-1][v]++
				held |= 1 << v
			}
			held |= (cu.regIn | cu.vPresent) & (1 << v)
		}
		regCU[v] = int8(ownerCU)
	}
	for cs := cm; cs != 0; cs &= cs - 1 {
		ci := bits.TrailingZeros8(cs)
		cu := &s.cus[ci]
		// sb-fifo: one coalesced slot per word.
		var seen uint8
		for i := uint8(0); i < cu.sbLen; i++ {
			bit := uint8(1) << cu.sbVar[i]
			if seen&bit != 0 {
				return "sb-fifo", fmt.Sprintf("cu%d buffers %s twice", ci, vname(cu.sbVar[i]))
			}
			seen |= bit
		}
		// lazy-reg-exclusive and lazy-orphan.
		if x := cu.lazy & cu.regIn; x != 0 {
			return "lazy-reg-exclusive", fmt.Sprintf("cu%d: %s is lazily delayed while its registration is in flight", ci, m.varOfBit(x))
		}
		if orphan := cu.lazy &^ seen; orphan != 0 {
			return "lazy-orphan", fmt.Sprintf("cu%d: %s is lazily delayed with no buffered write", ci, m.varOfBit(orphan))
		}
	}

	// One pass over the messages about vm counts, per (CU, variable),
	// the writethrough traffic (GPU) or registration tokens (DeNovo) in
	// flight, and marks the variables with registration or writeback
	// traffic in flight.
	var busy uint8
	gpu := m.cfg.proto == protoGPU
	for i := range s.msgs {
		g := &s.msgs[i]
		if vm&(1<<g.v) == 0 {
			continue
		}
		if gpu {
			switch {
			case g.kind == mWT && g.dst == home:
				inflight[g.src][g.v]++
			case g.kind == mWTAck && g.src == home:
				inflight[g.dst][g.v]++
			}
			continue
		}
		switch g.kind {
		case mRegReq:
			inflight[g.src][g.v]++
		case mRegAck, mRegXfer:
			inflight[g.dst][g.v]++
		case mRegFwd:
			inflight[g.req][g.v]++
		case mWB, mWBAck:
		default:
			continue
		}
		busy |= 1 << g.v
	}
	if gpu {
		// wt-balance: the outstanding-writethrough count per (CU, var)
		// equals the writethroughs and acks in flight.
		for ci := 0; ci < m.nc; ci++ {
			for vs := vm; vs != 0; vs &= vs - 1 {
				v := bits.TrailingZeros8(vs)
				if n := s.cus[ci].wtCnt[v]; n != inflight[ci][v] {
					return "wt-balance", fmt.Sprintf("cu%d: %d writethroughs outstanding for %s but %d in flight",
						ci, n, vname(v), inflight[ci][v])
				}
			}
		}
		return "", ""
	}
	// reg-single: exactly one registration token in flight per pending
	// registration, zero otherwise.
	for ci := 0; ci < m.nc; ci++ {
		for vs := vm; vs != 0; vs &= vs - 1 {
			v := bits.TrailingZeros8(vs)
			want := s.cus[ci].regIn >> v & 1
			if inflight[ci][v] != want {
				return "reg-single", fmt.Sprintf("cu%d: %d registration tokens in flight for %s (want %d)",
					ci, inflight[ci][v], vname(v), want)
			}
		}
	}
	// l2-agreement on quiescent words: no registration or writeback
	// traffic touching v anywhere. swmr-registration held, so regCU is
	// the one L1 holding v registered, if any.
	for vs := vm &^ (busy | held); vs != 0; vs &= vs - 1 {
		v := bits.TrailingZeros8(vs)
		switch {
		case s.owner[v] < 0 && regCU[v] >= 0:
			return "l2-agreement", fmt.Sprintf("cu%d holds %s registered but the registry says memory owns it", regCU[v], vname(v))
		case s.owner[v] >= 0 && regCU[v] != s.owner[v]:
			return "l2-agreement", fmt.Sprintf("registry says cu%d owns %s but that L1 does not hold it registered", s.owner[v], vname(v))
		}
	}
	return "", ""
}

func (m *model) varOfBit(mask uint8) string {
	for v := 0; v < m.nv; v++ {
		if mask&(1<<v) != 0 {
			return vname(v)
		}
	}
	return fmt.Sprintf("bit %#x", mask)
}
