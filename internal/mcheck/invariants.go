package mcheck

import "fmt"

// The machine-readable invariant suite. Each named invariant is
// checked on every explored state; the same names are used by the
// runtime sanitizer's quiesced-state checks so a model-checker
// counterexample and a simulator assertion failure read the same way.

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
	// swmr-registration / dirty-protocol.
	for v := 0; v < m.nv; v++ {
		ownerCU := -1
		for ci := 0; ci < m.nc; ci++ {
			switch s.cus[ci].st[v] {
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
		}
	}
	for ci := 0; ci < m.nc; ci++ {
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
	// wt-balance: count in-flight writethrough traffic per (cu, var).
	if m.cfg.proto == protoGPU {
		var inflight [maxCUs][maxVars]int
		for i := range s.msgs {
			g := &s.msgs[i]
			if g.kind == mWT && g.dst == home {
				inflight[g.src][g.v]++
			}
			if g.kind == mWTAck && g.src == home {
				inflight[g.dst][g.v]++
			}
		}
		for ci := 0; ci < m.nc; ci++ {
			for v := 0; v < m.nv; v++ {
				if int(s.cus[ci].wtCnt[v]) != inflight[ci][v] {
					return "wt-balance", fmt.Sprintf("cu%d: %d writethroughs outstanding for %s but %d in flight",
						ci, s.cus[ci].wtCnt[v], vname(v), inflight[ci][v])
				}
			}
		}
	}
	if m.cfg.proto == protoDeNovo {
		// reg-single: exactly one registration token in flight per
		// pending registration, zero otherwise.
		var tokens [maxCUs][maxVars]int
		for i := range s.msgs {
			g := &s.msgs[i]
			switch g.kind {
			case mRegReq:
				tokens[g.src][g.v]++
			case mRegAck, mRegXfer:
				tokens[g.dst][g.v]++
			case mRegFwd:
				tokens[g.req][g.v]++
			}
		}
		for ci := 0; ci < m.nc; ci++ {
			for v := 0; v < m.nv; v++ {
				if d := s.cus[ci].defFwd[v]; d != 0 {
					tokens[d-1][v]++
				}
			}
		}
		for ci := 0; ci < m.nc; ci++ {
			for v := 0; v < m.nv; v++ {
				want := 0
				if s.cus[ci].regIn&(1<<v) != 0 {
					want = 1
				}
				if tokens[ci][v] != want {
					return "reg-single", fmt.Sprintf("cu%d: %d registration tokens in flight for %s (want %d)",
						ci, tokens[ci][v], vname(v), want)
				}
			}
		}
		// l2-agreement on quiescent words: no registration or writeback
		// traffic touching v anywhere.
		for v := uint8(0); int(v) < m.nv; v++ {
			quiet := true
			for i := range s.msgs {
				g := &s.msgs[i]
				if g.v != v {
					continue
				}
				switch g.kind {
				case mRegReq, mRegAck, mRegFwd, mRegXfer, mWB, mWBAck:
					quiet = false
				}
			}
			for ci := 0; quiet && ci < m.nc; ci++ {
				if s.cus[ci].regIn&(1<<v) != 0 || s.cus[ci].vPresent&(1<<v) != 0 || s.cus[ci].defFwd[v] != 0 {
					quiet = false
				}
			}
			if !quiet {
				continue
			}
			regCU := -1
			for ci := 0; ci < m.nc; ci++ {
				if s.cus[ci].st[v] == wReg {
					regCU = ci
				}
			}
			switch {
			case s.owner[v] < 0 && regCU >= 0:
				return "l2-agreement", fmt.Sprintf("cu%d holds %s registered but the registry says memory owns it", regCU, vname(v))
			case s.owner[v] >= 0 && regCU != int(s.owner[v]):
				return "l2-agreement", fmt.Sprintf("registry says cu%d owns %s but that L1 does not hold it registered", s.owner[v], vname(v))
			}
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
