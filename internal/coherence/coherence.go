// Package coherence implements the four invalidation-based cache coherence
// protocols discussed in the paper — MEI (PowerPC755), MSI, MESI (Intel486,
// Pentium class), and MOESI (UltraSPARC / AMD64) — as explicit state
// machines with separate processor-side and snoop-side transition tables.
//
// The tables follow the classical formulations in Culler/Singh/Gupta
// (paper ref. [12]) and the paper's Section 2.  Cache-to-cache sharing
// (owner-supplied data) is implemented only for MOESI, matching the paper's
// assumption that "cache-to-cache sharing is implemented only in processors
// supporting the MOESI protocol".
package coherence

import (
	"fmt"
	"strings"
)

// State is a cache-line coherence state.
type State uint8

// The five classic states.  Each protocol uses a subset.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
	Owned
)

// String returns the one-letter conventional name of the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case Owned:
		return "O"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Valid reports whether the line holds data (any state but Invalid).
func (s State) Valid() bool { return s != Invalid }

// Dirty reports whether the line holds data newer than memory.
func (s State) Dirty() bool { return s == Modified || s == Owned }

// StateSet is a set of states, one bit per State.  The zero value is the
// empty set.
type StateSet uint8

// SetOf returns the set holding states.
func SetOf(states ...State) StateSet {
	var m StateSet
	for _, s := range states {
		m.Add(s)
	}
	return m
}

// Has reports whether s is in the set.
func (m StateSet) Has(s State) bool { return m&(1<<s) != 0 }

// Add puts s in the set.
func (m *StateSet) Add(s State) { *m |= 1 << s }

// States lists the members in protocol order (I < S < E < M < O).
func (m StateSet) States() []State {
	var out []State
	for s := Invalid; s < 8; s++ {
		if m.Has(s) {
			out = append(out, s)
		}
	}
	return out
}

// String renders the set as {I,S,E}.
func (m StateSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, s := range m.States() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Kind identifies a coherence protocol.
type Kind uint8

// Protocol kinds.  None marks a processor with no coherence hardware at all
// (the ARM920T in the paper's case study).
const (
	None Kind = iota
	MEI
	MSI
	MESI
	MOESI
)

// String returns the protocol's conventional name.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case MEI:
		return "MEI"
	case MSI:
		return "MSI"
	case MESI:
		return "MESI"
	case MOESI:
		return "MOESI"
	case Dragon:
		return "Dragon"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// BusOp is a coherence-relevant bus operation observed by snoopers.
type BusOp uint8

const (
	// BusRd is a read (line fill) by another master.
	BusRd BusOp = iota
	// BusRdX is a read-for-ownership (write miss) by another master.  The
	// paper's wrappers convert observed BusRd into BusRdX ("read to write
	// conversion") to eliminate the Shared and Owned states.
	BusRdX
	// BusUpgr is an ownership upgrade (write hit on a Shared line) by
	// another master; no data transfer.
	BusUpgr
)

// String returns the operation's conventional name.
func (o BusOp) String() string {
	switch o {
	case BusRd:
		return "BusRd"
	case BusRdX:
		return "BusRdX"
	case BusUpgr:
		return "BusUpgr"
	case BusUpd:
		return "BusUpd"
	default:
		return fmt.Sprintf("BusOp(%d)", uint8(o))
	}
}

// SnoopOutcome is the result of presenting a bus operation to a snooping
// cache controller that holds the line.
type SnoopOutcome struct {
	// Next is the line's state after the snoop.
	Next State
	// AssertShared asserts the bus shared signal (the snooper retains a
	// valid copy, so the requester must allocate Shared).
	AssertShared bool
	// Flush writes the (dirty) line back to memory before the requester's
	// access completes.  On the bus this is the ARTRY/HITM/BOFF retry
	// sequence of the paper's Section 3.
	Flush bool
	// Supply provides the line directly to the requester (cache-to-cache
	// sharing).  Only MOESI and Dragon set this.
	Supply bool
	// Update patches the broadcast word into the snooper's copy in place
	// (Dragon bus updates only).
	Update bool
}

type writeHitEntry struct {
	next State
	op   BusOp
	bus  bool
}

// Protocol is an immutable description of one coherence protocol's state
// machine.  Obtain instances with New.
//
// The writeHit and snoop map literals are the single source of each
// protocol's transitions.  dense answers OnWriteHit and OnSnoop from arrays
// built once from those maps, so the per-access lookups never hash.
type Protocol struct {
	kind     Kind
	states   StateSet
	fillRead func(shared bool) State
	writeHit map[State]writeHitEntry
	snoop    map[State]map[BusOp]SnoopOutcome
	dense    denseTables
}

const (
	numStates = int(Owned) + 1
	numBusOps = int(BusUpd) + 1
)

// denseTables is the [state][op] array form of a protocol's maps.  The ok
// flags record which entries the maps define; snoopRow records which states
// have a snoop row at all, so a missing row and a missing op keep their
// distinct errors.
type denseTables struct {
	writeHit   [numStates]writeHitEntry
	writeHitOK [numStates]bool
	snoop      [numStates][numBusOps]SnoopOutcome
	snoopOK    [numStates][numBusOps]bool
	snoopRow   [numStates]bool
}

// withDense fills p.dense from p's map literals and returns p.
func withDense(p *Protocol) *Protocol {
	for s, e := range p.writeHit {
		p.dense.writeHit[s] = e
		p.dense.writeHitOK[s] = true
	}
	for s, row := range p.snoop {
		p.dense.snoopRow[s] = true
		for op, out := range row {
			p.dense.snoop[s][op] = out
			p.dense.snoopOK[s][op] = true
		}
	}
	return p
}

// New returns the state machine for protocol k.  It panics on None or an
// unknown kind: callers must special-case coherence-less processors.
func New(k Kind) *Protocol {
	switch k {
	case MEI:
		return meiProtocol
	case MSI:
		return msiProtocol
	case MESI:
		return mesiProtocol
	case MOESI:
		return moesiProtocol
	case Dragon:
		return dragonProtocol
	default:
		panic(fmt.Sprintf("coherence: no state machine for protocol %v", k))
	}
}

// Kind returns the protocol identifier.
func (p *Protocol) Kind() Kind { return p.kind }

// States returns the states the protocol can use, including Invalid.
func (p *Protocol) States() StateSet { return p.states }

// Has reports whether s is a state of this protocol.
func (p *Protocol) Has(s State) bool { return p.states.Has(s) }

// CacheToCache reports whether the protocol supplies data cache-to-cache.
func (p *Protocol) CacheToCache() bool { return p.kind == MOESI || p.kind == Dragon }

// FillStateAfterRead returns the state a line allocates into after a read
// miss completes, given the shared signal sampled on the bus.
func (p *Protocol) FillStateAfterRead(shared bool) State {
	return p.fillRead(shared)
}

// FillStateAfterWrite returns the state after a write-miss fill (always
// Modified in every invalidation protocol).
func (p *Protocol) FillStateAfterWrite() State { return Modified }

// OnReadHit returns the state after a processor read hit (always unchanged
// in invalidation protocols).
func (p *Protocol) OnReadHit(s State) (State, error) {
	if !p.Has(s) || s == Invalid {
		return s, fmt.Errorf("coherence: %v read hit in state %v", p.kind, s)
	}
	return s, nil
}

// OnWriteHit returns the state after a processor write hit and the bus
// operation (if any) required to gain ownership.
func (p *Protocol) OnWriteHit(s State) (next State, op BusOp, needsBus bool, err error) {
	if int(s) >= numStates || !p.dense.writeHitOK[s] {
		return s, 0, false, fmt.Errorf("coherence: %v write hit in state %v", p.kind, s)
	}
	e := &p.dense.writeHit[s]
	return e.next, e.op, e.bus, nil
}

// OnSnoop returns the outcome of observing op while holding the line in
// state s.  Snooping in Invalid is legal and is a no-op.
func (p *Protocol) OnSnoop(s State, op BusOp) (SnoopOutcome, error) {
	if s == Invalid {
		return SnoopOutcome{Next: Invalid}, nil
	}
	if int(s) >= numStates || !p.dense.snoopRow[s] {
		return SnoopOutcome{}, fmt.Errorf("coherence: %v snoop in foreign state %v", p.kind, s)
	}
	if int(op) >= numBusOps || !p.dense.snoopOK[s][op] {
		return SnoopOutcome{}, fmt.Errorf("coherence: %v has no snoop transition for %v in %v", p.kind, op, s)
	}
	return p.dense.snoop[s][op], nil
}

var meiProtocol = withDense(&Protocol{
	kind:   MEI,
	states: SetOf(Invalid, Exclusive, Modified),
	// MEI has no Shared state: a read miss always allocates Exclusive and
	// the shared signal is ignored (the PowerPC755 has no SHD input).
	fillRead: func(bool) State { return Exclusive },
	writeHit: map[State]writeHitEntry{
		Exclusive: {next: Modified},
		Modified:  {next: Modified},
	},
	snoop: map[State]map[BusOp]SnoopOutcome{
		// Without a Shared state any snoop hit must relinquish the line.
		Exclusive: {
			BusRd:   {Next: Invalid},
			BusRdX:  {Next: Invalid},
			BusUpgr: {Next: Invalid},
		},
		Modified: {
			BusRd:   {Next: Invalid, Flush: true},
			BusRdX:  {Next: Invalid, Flush: true},
			BusUpgr: {Next: Invalid, Flush: true},
		},
	},
})

var msiProtocol = withDense(&Protocol{
	kind:   MSI,
	states: SetOf(Invalid, Shared, Modified),
	// MSI has no Exclusive state: a read miss always allocates Shared.
	fillRead: func(bool) State { return Shared },
	writeHit: map[State]writeHitEntry{
		Shared:   {next: Modified, op: BusUpgr, bus: true},
		Modified: {next: Modified},
	},
	snoop: map[State]map[BusOp]SnoopOutcome{
		Shared: {
			BusRd:   {Next: Shared, AssertShared: true},
			BusRdX:  {Next: Invalid},
			BusUpgr: {Next: Invalid},
		},
		Modified: {
			BusRd:   {Next: Shared, Flush: true, AssertShared: true},
			BusRdX:  {Next: Invalid, Flush: true},
			BusUpgr: {Next: Invalid, Flush: true},
		},
	},
})

var mesiProtocol = withDense(&Protocol{
	kind:   MESI,
	states: SetOf(Invalid, Shared, Exclusive, Modified),
	fillRead: func(shared bool) State {
		if shared {
			return Shared
		}
		return Exclusive
	},
	writeHit: map[State]writeHitEntry{
		Shared:    {next: Modified, op: BusUpgr, bus: true},
		Exclusive: {next: Modified},
		Modified:  {next: Modified},
	},
	snoop: map[State]map[BusOp]SnoopOutcome{
		Shared: {
			BusRd:   {Next: Shared, AssertShared: true},
			BusRdX:  {Next: Invalid},
			BusUpgr: {Next: Invalid},
		},
		Exclusive: {
			BusRd:   {Next: Shared, AssertShared: true},
			BusRdX:  {Next: Invalid},
			BusUpgr: {Next: Invalid},
		},
		Modified: {
			BusRd:   {Next: Shared, Flush: true, AssertShared: true},
			BusRdX:  {Next: Invalid, Flush: true},
			BusUpgr: {Next: Invalid, Flush: true},
		},
	},
})

var moesiProtocol = withDense(&Protocol{
	kind:   MOESI,
	states: SetOf(Invalid, Shared, Exclusive, Modified, Owned),
	fillRead: func(shared bool) State {
		if shared {
			return Shared
		}
		return Exclusive
	},
	writeHit: map[State]writeHitEntry{
		Shared:    {next: Modified, op: BusUpgr, bus: true},
		Owned:     {next: Modified, op: BusUpgr, bus: true},
		Exclusive: {next: Modified},
		Modified:  {next: Modified},
	},
	snoop: map[State]map[BusOp]SnoopOutcome{
		Shared: {
			BusRd:   {Next: Shared, AssertShared: true},
			BusRdX:  {Next: Invalid},
			BusUpgr: {Next: Invalid},
		},
		Exclusive: {
			BusRd:   {Next: Shared, AssertShared: true},
			BusRdX:  {Next: Invalid},
			BusUpgr: {Next: Invalid},
		},
		// M->O on a snooped read, with the owner supplying the data
		// cache-to-cache instead of flushing to memory.
		Modified: {
			BusRd:   {Next: Owned, AssertShared: true, Supply: true},
			BusRdX:  {Next: Invalid, Supply: true},
			BusUpgr: {Next: Invalid, Flush: true},
		},
		Owned: {
			BusRd:   {Next: Owned, AssertShared: true, Supply: true},
			BusRdX:  {Next: Invalid, Supply: true},
			BusUpgr: {Next: Invalid},
		},
	},
})
