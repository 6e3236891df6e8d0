// Package wrapper realises the paper's per-processor bus wrappers.
//
// In hardware the wrapper sits between a processor's native bus interface
// (60x for the PowerPC755, the PC bus for the Intel486) and the shared ASB,
// translating handshakes and — crucially for coherence — manipulating what
// the processor's snoop port observes: read-to-write conversion and
// shared-signal override.  In the simulator the handshake translation is
// already uniform (package bus), so the wrapper reduces to a cache.Policy
// carrying the integration rules computed by core.Reduce, plus bookkeeping
// counters that let experiments report how often each mechanism fired.
package wrapper

import (
	"fmt"

	"hetcc/internal/cache"
	"hetcc/internal/coherence"
	"hetcc/internal/core"
	"hetcc/internal/event"
)

// Wrapper implements cache.Policy from a core.WrapperPolicy.
type Wrapper struct {
	name   string
	policy core.WrapperPolicy

	// Conversions counts read-to-write conversions performed on the snoop
	// path; Overrides counts shared-signal overrides that changed the
	// sampled value.
	Conversions uint64
	Overrides   uint64

	// nil-safe coherence event sink (see SetEvents), the wrapper's only
	// instrumentation output; core is the owning processor's index, stamped
	// on every record.
	events *event.Sink
	core   int
}

var _ cache.Policy = (*Wrapper)(nil)

// New builds a wrapper named name (for reports) applying policy.
func New(name string, policy core.WrapperPolicy) *Wrapper {
	return &Wrapper{name: name, policy: policy}
}

// Name returns the wrapper's report name.
func (w *Wrapper) Name() string { return w.name }

// Policy returns the integration policy in force.
func (w *Wrapper) Policy() core.WrapperPolicy { return w.policy }

// SetEvents attaches the wrapper to a coherence event sink; core is the
// owning processor's index.  A nil sink makes every emission a nil check.
func (w *Wrapper) SetEvents(s *event.Sink, core int) {
	w.events = s
	w.core = core
}

// ConvertSnoop implements cache.Policy: the read-to-write conversion of the
// paper's Figure 1 (equivalently, asserting the Intel486 INV pin on read
// snoop cycles).
func (w *Wrapper) ConvertSnoop(op coherence.BusOp) coherence.BusOp {
	converted := w.policy.SnoopOp(op)
	if converted != op {
		w.Conversions++
		w.events.WrapperConvert(w.core, op, converted)
	}
	return converted
}

// OverrideShared implements cache.Policy.
func (w *Wrapper) OverrideShared(shared bool) bool {
	out := w.policy.ApplyShared(shared)
	if out != shared {
		w.Overrides++
		w.events.SharedOverride(w.core, shared, out)
	}
	return out
}

// AllowSupply implements cache.Policy.
func (w *Wrapper) AllowSupply() bool { return w.policy.AllowCacheToCache }

// String summarises the wrapper configuration.
func (w *Wrapper) String() string {
	return fmt.Sprintf("wrapper(%s %v)", w.name, w.policy)
}
