// Dragon — the update-based protocol of paper reference [3] (Xerox PARC's
// Dragon computer).  The paper's integration method covers only
// invalidation-based protocols ("invalidation-based strategies have been
// found to be more robust and are therefore provided as the default
// protocol by most vendors"); Dragon is implemented here as the contrasting
// baseline class: homogeneous Dragon systems run natively, and core.Reduce
// rejects any mix containing it, exactly matching the paper's scope.
//
// State mapping onto the shared State enum:
//
//	Exclusive = E  (exclusive clean)
//	Shared    = Sc (shared clean)
//	Owned     = Sm (shared modified — this cache owns the dirty line)
//	Modified  = M  (exclusive modified)
//
// Writes to shared lines broadcast the word on the bus (BusUpd); sharers
// patch their copies in place instead of invalidating.  Memory is updated
// only when an Sm/M line is written back.
package coherence

import "fmt"

// BusUpd is the Dragon bus update: a single-word broadcast that sharers
// apply in place.  Declared alongside the invalidation ops so snoop tables
// share one BusOp space.
const BusUpd BusOp = 3

// Dragon is the protocol kind for the update-based Dragon protocol.
const Dragon Kind = 5

// UpdateBased reports whether k propagates writes by updating sharers
// rather than invalidating them.
func (k Kind) UpdateBased() bool { return k == Dragon }

// AfterUpdate returns the writer's state after a bus update completes,
// given the sampled shared signal: still shared → Sm (owned), no sharers
// left → M.  Only meaningful for update-based protocols.
func (p *Protocol) AfterUpdate(shared bool) State {
	if !p.kind.UpdateBased() {
		panic(fmt.Sprintf("coherence: AfterUpdate on %v", p.kind))
	}
	if shared {
		return Owned
	}
	return Modified
}

// UpdateBased reports whether the protocol broadcasts updates.
func (p *Protocol) UpdateBased() bool { return p.kind.UpdateBased() }

var dragonProtocol = withDense(&Protocol{
	kind:   Dragon,
	states: SetOf(Invalid, Shared, Exclusive, Modified, Owned),
	fillRead: func(shared bool) State {
		if shared {
			return Shared // Sc
		}
		return Exclusive
	},
	writeHit: map[State]writeHitEntry{
		Exclusive: {next: Modified},
		Modified:  {next: Modified},
		// Sc/Sm writes broadcast the word; the final state (Sm or M)
		// depends on the shared signal sampled during the update, resolved
		// by the controller via AfterUpdate.
		Shared: {next: Owned, op: BusUpd, bus: true},
		Owned:  {next: Owned, op: BusUpd, bus: true},
	},
	snoop: map[State]map[BusOp]SnoopOutcome{
		Exclusive: {
			BusRd: {Next: Shared, AssertShared: true},
			// Invalidation ops can only arrive from a foreign protocol
			// (rejected by core.Reduce); handled defensively.
			BusRdX:  {Next: Invalid},
			BusUpgr: {Next: Invalid},
			BusUpd:  {Next: Shared, AssertShared: true, Update: true},
		},
		Shared: { // Sc
			BusRd:   {Next: Shared, AssertShared: true},
			BusRdX:  {Next: Invalid},
			BusUpgr: {Next: Invalid},
			BusUpd:  {Next: Shared, AssertShared: true, Update: true},
		},
		Owned: { // Sm
			BusRd: {Next: Owned, AssertShared: true, Supply: true},
			// Another writer's update takes over ownership: we keep a
			// clean shared copy.
			BusUpd:  {Next: Shared, AssertShared: true, Update: true},
			BusRdX:  {Next: Invalid, Supply: true},
			BusUpgr: {Next: Invalid},
		},
		Modified: {
			BusRd:   {Next: Owned, AssertShared: true, Supply: true},
			BusUpd:  {Next: Shared, AssertShared: true, Update: true},
			BusRdX:  {Next: Invalid, Supply: true},
			BusUpgr: {Next: Invalid, Flush: true},
		},
	},
})
