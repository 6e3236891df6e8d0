// Package core implements the paper's central contribution: the rules for
// integrating heterogeneous invalidation-based coherence protocols on one
// shared bus (Section 2 of the paper), expressed as per-processor wrapper
// policies, plus the platform classification of the paper's Table 1.  The
// exhaustive reachability explorer of internal/explore proves that the
// reduction eliminates the intended states.  The invariants that explorer
// and the online auditor of internal/audit both check — the allowed state
// sets, single writer and single dirty owner — are defined here, once.
//
// Protocol reduction summary (paper Sections 2.1–2.3):
//
//   - any MEI present  → effective MEI: snooping wrappers convert observed
//     reads to writes and the shared signal is force-deasserted, removing
//     the S (and O) states everywhere;
//   - else any MSI     → effective MSI: the shared signal is force-asserted
//     on MESI/MOESI read misses (removing E); MOESI snoopers additionally
//     convert reads to writes so the M→O transition never fires;
//   - else MESI+MOESI  → effective MESI: MOESI snoopers convert reads to
//     writes, prohibiting cache-to-cache sharing (E→S and M→O are gone;
//     I→S via the shared signal remains);
//   - homogeneous      → unchanged, wrappers pass through.
//
// In every heterogeneous mix cache-to-cache supply is suppressed: the paper
// assumes only MOESI processors implement it, so a mixed system must fall
// back to the drain-and-retry path.
package core

import (
	"fmt"

	"hetcc/internal/coherence"
)

// SharedOverride selects how a wrapper maps the bus shared signal that its
// processor samples on its own read misses.
type SharedOverride uint8

const (
	// SharedPassthrough presents the bus value unmodified.
	SharedPassthrough SharedOverride = iota
	// SharedForceAssert always asserts shared (removes the E state).
	SharedForceAssert
	// SharedForceDeassert always deasserts shared (removes the I→S
	// allocation; together with read-to-write conversion this removes S).
	SharedForceDeassert
)

// String names the override.
func (s SharedOverride) String() string {
	switch s {
	case SharedPassthrough:
		return "passthrough"
	case SharedForceAssert:
		return "force-assert"
	case SharedForceDeassert:
		return "force-deassert"
	default:
		return fmt.Sprintf("SharedOverride(%d)", uint8(s))
	}
}

// WrapperPolicy is the per-processor configuration of the paper's bus
// wrapper.
type WrapperPolicy struct {
	// ConvertReadToWrite makes the processor's snoop port observe BusRdX
	// where the bus carried BusRd (the paper's "read to write conversion";
	// on the Intel486 this is realised by asserting the INV pin on read
	// snoop cycles).
	ConvertReadToWrite bool
	// Shared is the shared-signal override applied on the processor's own
	// fills.
	Shared SharedOverride
	// AllowCacheToCache permits the processor to supply snooped lines
	// directly to the requester.  Only true in homogeneous MOESI systems.
	AllowCacheToCache bool
}

// String summarises the policy.
func (p WrapperPolicy) String() string {
	return fmt.Sprintf("{rd→wr:%v shared:%v c2c:%v}", p.ConvertReadToWrite, p.Shared, p.AllowCacheToCache)
}

// SnoopOp applies the wrapper's read-to-write conversion to the bus
// operation op as observed by this processor's snoop port.
func (p WrapperPolicy) SnoopOp(op coherence.BusOp) coherence.BusOp {
	if p.ConvertReadToWrite && op == coherence.BusRd {
		return coherence.BusRdX
	}
	return op
}

// ApplyShared applies the wrapper's shared-signal override to the value
// sampled by this processor's master port.
func (p WrapperPolicy) ApplyShared(shared bool) bool {
	switch p.Shared {
	case SharedForceAssert:
		return true
	case SharedForceDeassert:
		return false
	default:
		return shared
	}
}

// PlatformClass is the paper's Table 1 classification.
type PlatformClass uint8

const (
	// PF1: no processor has cache coherence hardware.
	PF1 PlatformClass = iota + 1
	// PF2: some, but not all, processors have coherence hardware.
	PF2
	// PF3: every processor has coherence hardware.
	PF3
)

// String names the class.
func (c PlatformClass) String() string {
	switch c {
	case PF1:
		return "PF1"
	case PF2:
		return "PF2"
	case PF3:
		return "PF3"
	default:
		return fmt.Sprintf("PlatformClass(%d)", uint8(c))
	}
}

// Classify maps the per-processor "has coherence hardware" vector to the
// paper's platform class.
func Classify(protocols []coherence.Kind) (PlatformClass, error) {
	if len(protocols) == 0 {
		return 0, fmt.Errorf("core: no processors")
	}
	withHW := 0
	for _, k := range protocols {
		if k != coherence.None {
			withHW++
		}
	}
	switch {
	case withHW == 0:
		return PF1, nil
	case withHW == len(protocols):
		return PF3, nil
	default:
		return PF2, nil
	}
}

// Integration is the output of protocol reduction: everything the platform
// builder needs to wire the paper's coherence scheme.
type Integration struct {
	// Class is the Table 1 platform class.
	Class PlatformClass
	// Effective is the reduced protocol the system behaves as.
	Effective coherence.Kind
	// Policies holds one wrapper policy per processor (zero-valued for
	// coherence-less processors, which get snoop logic instead).
	Policies []WrapperPolicy
	// NeedsSnoopLogic flags processors without coherence hardware: they
	// require the external TAG-CAM snoop logic and the interrupt-driven
	// drain routine (paper Section 3, Figure 3).
	NeedsSnoopLogic []bool
	// LockCaveat is non-empty on PF1/PF2 platforms: lock variables must
	// not be cached (or a hardware lock register must be used), or the
	// hardware-deadlock problem of the paper's Figure 4 can occur.
	LockCaveat string
}

func has(protocols []coherence.Kind, k coherence.Kind) bool {
	for _, p := range protocols {
		if p == k {
			return true
		}
	}
	return false
}

// hasSharedState reports whether protocol k uses the S state.
func hasSharedState(k coherence.Kind) bool {
	return k == MSIKind || k == MESIKind || k == MOESIKind
}

// Local aliases keep the rule table readable.
const (
	NoneKind  = coherence.None
	MEIKind   = coherence.MEI
	MSIKind   = coherence.MSI
	MESIKind  = coherence.MESI
	MOESIKind = coherence.MOESI
)

// Reduce computes the integration plan for the given per-processor protocol
// list (coherence.None marks a processor with no coherence hardware).
func Reduce(protocols []coherence.Kind) (Integration, error) {
	class, err := Classify(protocols)
	if err != nil {
		return Integration{}, err
	}
	out := Integration{
		Class:           class,
		Policies:        make([]WrapperPolicy, len(protocols)),
		NeedsSnoopLogic: make([]bool, len(protocols)),
	}
	for i, k := range protocols {
		if k == NoneKind {
			out.NeedsSnoopLogic[i] = true
		}
	}
	if class != PF3 {
		out.LockCaveat = "lock variables must not be cached (use an uncached software lock or the hardware lock register), or the hardware-deadlock problem can occur"
	}

	// Collect the distinct coherent protocols.
	var kinds []coherence.Kind
	for _, k := range protocols {
		if k != NoneKind && !has(kinds, k) {
			kinds = append(kinds, k)
		}
	}

	// The paper's method covers invalidation-based protocols only; the
	// update-based Dragon protocol is supported solely in homogeneous
	// systems (Section 2: "we focus our discussion on those processors
	// that support invalidation-based protocols").
	if has(kinds, coherence.Dragon) && (len(kinds) > 1 || class != PF3) {
		return Integration{}, fmt.Errorf("core: the update-based Dragon protocol cannot be integrated with %v: the wrapper method covers invalidation-based protocols only", kinds)
	}

	// A PF2 platform implicitly contains MEI: a coherence-less processor's
	// private cache allocates exclusively and upgrades to Modified without
	// bus traffic (it has no shared-signal input), which is exactly an MEI
	// cache as far as the other processors can observe.  Any shared-state
	// protocol alongside it must therefore be reduced as an MEI mix
	// (Section 2.1 applied to the implicit MEI) — otherwise a coherent
	// processor can keep an S copy across the coherence-less master's
	// silent E→M write hit and read stale data.  The state-space explorer
	// (internal/explore) finds that defect in a five-action trace.
	if class == PF2 && len(kinds) > 0 && !has(kinds, MEIKind) {
		kinds = append(kinds, MEIKind)
	}

	switch {
	case len(kinds) == 0:
		// PF1: caches behave as private MEI-like caches; coherence comes
		// entirely from snoop logic + ISR drains.
		out.Effective = MEIKind
		return out, nil

	case len(kinds) == 1:
		// Homogeneous coherent processors (possibly plus coherence-less
		// ones).  The native protocol survives; in a pure homogeneous
		// MOESI system cache-to-cache sharing stays enabled.
		out.Effective = kinds[0]
		pureHomogeneous := class == PF3
		for i, k := range protocols {
			if k == NoneKind {
				continue
			}
			out.Policies[i] = WrapperPolicy{
				Shared:            SharedPassthrough,
				AllowCacheToCache: (k == MOESIKind || k == coherence.Dragon) && pureHomogeneous,
			}
		}
		return out, nil

	case has(kinds, MEIKind):
		// Section 2.1: MEI with MSI/MESI/MOESI → MEI.  Remove the shared
		// state: snoopers with an S state observe writes instead of reads,
		// and the shared signal is never asserted to the requester.
		out.Effective = MEIKind
		for i, k := range protocols {
			if k == NoneKind {
				continue
			}
			out.Policies[i] = WrapperPolicy{
				ConvertReadToWrite: hasSharedState(k),
				Shared:             SharedForceDeassert,
			}
		}
		return out, nil

	case has(kinds, MSIKind):
		// Section 2.2: MSI with MESI/MOESI → MSI.  Force-assert the shared
		// signal on MESI/MOESI read misses so E is never allocated; MOESI
		// snoopers additionally convert reads to writes so M→O (and with
		// it cache-to-cache sharing) never occurs.
		out.Effective = MSIKind
		for i, k := range protocols {
			switch k {
			case MESIKind:
				out.Policies[i] = WrapperPolicy{Shared: SharedForceAssert}
			case MOESIKind:
				out.Policies[i] = WrapperPolicy{Shared: SharedForceAssert, ConvertReadToWrite: true}
			case MSIKind:
				out.Policies[i] = WrapperPolicy{Shared: SharedPassthrough}
			}
		}
		return out, nil

	default:
		// Section 2.3: MESI with MOESI → MESI (with E→S and M→O removed on
		// the MOESI side).  Read-to-write conversion at the MOESI snooper
		// prohibits cache-to-cache sharing; the I→S path via the shared
		// signal remains available.
		if !(has(kinds, MESIKind) && has(kinds, MOESIKind) && len(kinds) == 2) {
			return Integration{}, fmt.Errorf("core: unhandled protocol combination %v", kinds)
		}
		out.Effective = MESIKind
		for i, k := range protocols {
			switch k {
			case MOESIKind:
				out.Policies[i] = WrapperPolicy{ConvertReadToWrite: true}
			case MESIKind:
				out.Policies[i] = WrapperPolicy{}
			}
		}
		return out, nil
	}
}

// AllowedStates returns the per-processor coherence states permitted after
// reduction — the set the explorer checks reachability against.  A
// processor never enters a state outside both its native protocol and the
// effective protocol, except that the paper's MSI-in-MEI-mix case keeps the
// *name* S for lines that behave as E ("despite the name, the S state is
// equivalent to the E state"): for an MSI processor in an MEI mix the
// allowed set is therefore {I, S, M}.
func AllowedStates(native, effective coherence.Kind) coherence.StateSet {
	if native == coherence.None {
		return coherence.SetOf(coherence.Invalid, coherence.Exclusive, coherence.Modified)
	}
	nat := coherence.New(native).States()
	if native == effective {
		return nat
	}
	if native == MSIKind && effective == MEIKind {
		// MSI cannot allocate E; its I→S self-transition survives but the
		// line is exclusive in practice.
		return coherence.SetOf(coherence.Invalid, coherence.Shared, coherence.Modified)
	}
	return nat & coherence.New(effective).States()
}

// Check names of the invariants that both verifiers enforce: the online
// auditor (internal/audit) on live runs and the exhaustive explorer
// (internal/explore) on the abstract model, so their violations correlate.
const (
	CheckSWMR         = "swmr"
	CheckDirtyOwner   = "dirty-owner"
	CheckStaleRead    = "stale-read"
	CheckIllegalState = "illegal-state"
)

// Copies is the copy census of one line across the masters: how many hold
// a valid, a writable (E/M) and a dirty (M/O) copy, and the index of the
// last writable and the last dirty holder (-1 when there is none).
type Copies struct {
	Valid, Writable, Dirty int
	Writer, Owner          int
}

// CountCopies takes the census of one line's per-master state vector.
func CountCopies(states []coherence.State) Copies {
	c := Copies{Writer: -1, Owner: -1}
	for i, st := range states {
		if st == coherence.Invalid {
			continue
		}
		c.Valid++
		if st == coherence.Exclusive || st == coherence.Modified {
			c.Writable++
			c.Writer = i
		}
		if st.Dirty() {
			c.Dirty++
			c.Owner = i
		}
	}
	return c
}

// SWMR reports the single-writer/multiple-reader invariant: a writable copy
// is the line's only valid copy.
func (c Copies) SWMR() bool { return c.Writable == 0 || (c.Writable == 1 && c.Valid == 1) }

// SingleOwner reports the single-dirty-owner invariant: at most one copy is
// newer than memory.
func (c Copies) SingleOwner() bool { return c.Dirty <= 1 }
