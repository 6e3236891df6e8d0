// Package explore implements an exhaustive breadth-first reachability
// explorer over an abstract model of the coherence substrate: N bus masters
// (each running any protocol from {MEI, MSI, MESI, MOESI, Dragon, none}
// behind its wrapper or TAG-CAM snoop logic), one cache line with symbolic
// data, and a nondeterministic action alphabet — local read, local write,
// eviction / software cache-op — expressed as guarded actions that mirror
// the transition rules of internal/coherence, internal/core and the TAG-CAM
// snoop logic (whose snooplogic.Table rules the explorer's tests check the
// model against).
//
// Every state generated during the search is checked against the same
// invariants the online auditor of internal/audit enforces on live runs —
// SWMR and single dirty owner (both defined once, by core.CountCopies), the
// data-value invariant (via per-copy freshness bits), and reduction-table
// membership (core.AllowedStates) — plus the TAG-CAM mirror property (the
// CAM is a superset of the shadowed cache's residency).  Because the action
// alphabet is closed under interleaving and the line state space is finite,
// a clean sweep is a proof over all reachable states of the protocol product
// FSMs, not a test of the states a particular workload happens to visit.
//
// The model deliberately abstracts the cycle-accurate kernel: one line, no
// timing, atomic bus transactions (a snoop hit's ARTRY → nFIQ → ISR drain →
// retry sequence collapses into one guarded action), symbolic data as
// freshness bits.  DESIGN.md §10 discusses the abstraction gap; the
// containment test in the repository root checks the live simulator against
// the model in the direction that matters (observed ⊆ reachable).
package explore

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"hetcc/internal/coherence"
	"hetcc/internal/core"
)

// Model-only check names used in Violation.Check beside the core.Check*
// names the explorer shares with the online auditor: refinements the
// auditor cannot make (it sees a stale read only at the read, the model also
// flags the stale fill/write that caused it) and the TAG-CAM mirror
// property.
const (
	CheckStaleFill  = "stale-fill"
	CheckStaleWrite = "stale-write"
	CheckCAMMirror  = "cam-mirror"
)

// Mode selects which coherence hardware the model includes, matching the
// wiring variants of internal/platform.
type Mode uint8

const (
	// ModeWrapped is the paper's proposed solution: snooping caches behind
	// the wrapper policies computed by core.Reduce, TAG-CAM snoop logic for
	// coherence-less masters.  The proof target: zero violations.
	ModeWrapped Mode = iota
	// ModeUnwired is the DisableWrappers positive control: snooping is
	// active and coherence-less masters keep their snoop logic, but wrapper
	// conversions, the shared-signal wiring and cache-to-cache supply are
	// all absent.  Heterogeneous mixes must produce violations here.
	ModeUnwired
	// ModeNoSnoop models the baseline solutions (cache-disabled, software
	// maintenance): no snooping hardware at all.  The explorer enumerates
	// every interleaving, including the undisciplined ones the baselines
	// exclude by construction, so violations here are expected; the mode
	// exists to bound the baselines' reachable state sets for containment.
	ModeNoSnoop
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeWrapped:
		return "wrapped"
	case ModeUnwired:
		return "unwired"
	case ModeNoSnoop:
		return "no-snoop"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// MaxMasters bounds the model size: the canonical uint32 state key packs
// 6 bits per master plus one memory bit, so four masters use 25 of its 32
// bits.
const MaxMasters = 4

// DefaultMaxStates bounds the visited set when Config.MaxStates is zero.
// The largest 4-master product FSM reaches 1189 states; the default leaves
// a wide margin while still guaranteeing termination accounting if the
// model grows.
const DefaultMaxStates = 1 << 16

// Config configures one exploration.
type Config struct {
	// Protocols lists the per-master protocols (coherence.None marks a
	// master with no coherence hardware).  1..MaxMasters entries.
	Protocols []coherence.Kind
	// Mode selects the modelled hardware (see Mode).
	Mode Mode
	// MaxStates bounds the visited set (0 = DefaultMaxStates).  Successor
	// states beyond the bound are still invariant-checked and counted in
	// Result.Dropped, but not expanded: Result.Complete reports false.
	MaxStates int
	// Graph, when non-nil, receives the explored state graph as JSONL: one
	// record per expanded state, in BFS discovery order, with its outgoing
	// edges.
	Graph io.Writer
}

// Violation is one invariant breach found during exploration, with a
// replayable counterexample: Path is the guarded-action sequence from the
// initial state, and Trace is the rendered replay of that path (one line per
// action, re-executed through the model's step function, so a printed trace
// is by construction reproducible).
type Violation struct {
	Check  string
	Master int
	State  coherence.State
	Path   []string
	Trace  []string
}

// String renders the violation headline (use Trace for the full replay).
func (v Violation) String() string {
	return fmt.Sprintf("%s at P%d (state %v) after [%s]", v.Check, v.Master, v.State, strings.Join(v.Path, " "))
}

// Result is the census of one exploration.
type Result struct {
	Protocols []coherence.Kind
	Mode      Mode
	// Effective is the reduced protocol (ModeWrapped only; None otherwise).
	Effective coherence.Kind
	// States is the number of distinct reachable states discovered;
	// Transitions counts every guarded-action edge traversed.
	States      int
	Transitions int
	// FrontierPeak is the maximum BFS frontier size; Dropped counts
	// successor states not expanded because MaxStates was reached; Complete
	// reports a full sweep (Dropped == 0), i.e. the census is a proof over
	// all reachable states rather than a bounded search.
	FrontierPeak int
	Dropped      int
	Complete     bool
	// Violations lists every distinct (check, master, state) breach.
	Violations []Violation
	// Reachable[i] is master i's reachable state set — directly comparable
	// with the auditor's Summary.Reachable.  A state of master i's native
	// protocol outside it was proven unreachable (the wrapper did its job).
	Reachable []coherence.StateSet
}

// lineState is the abstract joint state of the one modelled cache line:
// per-master coherence state, a freshness bit (the copy holds the globally
// newest value), a TAG-CAM residency bit for masters behind snoop logic, and
// the memory freshness bit.
type lineState struct {
	cache    [MaxMasters]coherence.State
	fresh    [MaxMasters]bool
	cam      [MaxMasters]bool
	memFresh bool
}

func bit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// key packs the state canonically: 6 bits per master (3 state, 1 fresh,
// 1 cam, 1 spare) plus the memory bit.
func (s lineState) key(n int) uint32 {
	k := uint32(0)
	for i := 0; i < n; i++ {
		k = k<<6 | uint32(s.cache[i])<<2 | bit(s.fresh[i])<<1 | bit(s.cam[i])
	}
	return k<<1 | bit(s.memFresh)
}

// actKind enumerates the local action alphabet; bus transactions, snoop
// responses and wrapper conversions are consequences inside step, mirroring
// how the real kernel derives them from CPU accesses.
type actKind uint8

const (
	actRead actKind = iota
	actWrite
	actEvict
)

type action struct {
	master int
	kind   actKind
}

func (a action) String() string {
	switch a.kind {
	case actRead:
		return fmt.Sprintf("P%d.rd", a.master)
	case actWrite:
		return fmt.Sprintf("P%d.wr", a.master)
	default:
		return fmt.Sprintf("P%d.ev", a.master)
	}
}

// stepViolation is a breach detected while applying or checking one state.
type stepViolation struct {
	check  string
	master int
	state  coherence.State
}

type explorer struct {
	cfg       Config
	n         int
	native    []coherence.Kind
	protos    []*coherence.Protocol
	policies  []core.WrapperPolicy
	snoopCAM  []bool // master is behind TAG-CAM snoop logic
	allowed   []coherence.StateSet
	effective coherence.Kind
	maxStates int

	// BFS bookkeeping: states in discovery order, canonical key → id, and
	// one (parent, action) edge per state for counterexample reconstruction.
	states  []lineState
	ids     map[uint32]int32
	parents []int32
	acts    []action

	transitions  int
	frontierPeak int
	dropped      int

	reachable  []coherence.StateSet
	seenViol   map[string]bool
	violations []Violation
}

// Explore runs the breadth-first sweep for cfg.  In ModeWrapped the wrapper
// policies come from core.Reduce, so a mix the paper's method rejects (any
// Dragon heterogeneity) returns that error.
func Explore(cfg Config) (*Result, error) {
	n := len(cfg.Protocols)
	if n < 1 || n > MaxMasters {
		return nil, fmt.Errorf("explore: 1..%d masters supported, got %d", MaxMasters, n)
	}
	e := &explorer{
		cfg:       cfg,
		n:         n,
		native:    append([]coherence.Kind(nil), cfg.Protocols...),
		protos:    make([]*coherence.Protocol, n),
		policies:  make([]core.WrapperPolicy, n),
		snoopCAM:  make([]bool, n),
		allowed:   make([]coherence.StateSet, n),
		maxStates: cfg.MaxStates,
		ids:       make(map[uint32]int32),
		reachable: make([]coherence.StateSet, n),
		seenViol:  make(map[string]bool),
	}
	if e.maxStates <= 0 {
		e.maxStates = DefaultMaxStates
	}
	if cfg.Mode == ModeWrapped {
		integ, err := core.Reduce(cfg.Protocols)
		if err != nil {
			return nil, err
		}
		e.policies = integ.Policies
		e.effective = integ.Effective
	}
	for i, k := range cfg.Protocols {
		pk := k
		if k == coherence.None {
			// A coherence-less master drives an MEI-like private cache; in
			// the snooping modes the external TAG CAM shadows it.
			pk = coherence.MEI
			e.snoopCAM[i] = cfg.Mode != ModeNoSnoop
		}
		e.protos[i] = coherence.New(pk)
		eff := k
		if cfg.Mode == ModeWrapped {
			eff = e.effective
		}
		e.allowed[i] = core.AllowedStates(k, eff)
		e.reachable[i].Add(coherence.Invalid)
	}
	e.run()
	return e.result(), nil
}

func (e *explorer) run() {
	init := lineState{memFresh: true}
	e.states = []lineState{init}
	e.ids[init.key(e.n)] = 0
	e.parents = []int32{-1}
	e.acts = []action{{}}
	e.report(0, e.checkState(init))

	head := 0
	for head < len(e.states) {
		if f := len(e.states) - head; f > e.frontierPeak {
			e.frontierPeak = f
		}
		id := int32(head)
		cur := e.states[head]
		head++

		var edges []graphEdge
		for m := 0; m < e.n; m++ {
			for _, k := range []actKind{actRead, actWrite, actEvict} {
				a := action{master: m, kind: k}
				if k == actEvict && cur.cache[m] == coherence.Invalid {
					continue
				}
				next, label, viols := e.step(cur, a)
				e.transitions++
				nid := e.intern(next, id, a)
				for i := 0; i < e.n; i++ {
					e.reachable[i].Add(next.cache[i])
				}
				// Invariants are checked on every generated successor —
				// including revisits and states beyond the bound — so a
				// breach is never masked by deduplication or overflow.
				viols = append(viols, e.checkState(next)...)
				e.reportVia(id, a, viols)
				if e.cfg.Graph != nil {
					edges = append(edges, graphEdge{Action: a.String(), Label: label, To: nid})
				}
			}
		}
		if e.cfg.Graph != nil {
			e.dumpState(id, cur, edges)
		}
	}
}

// intern returns the id of state s, discovering it if new; -1 if the visited
// set is full (the state is counted as dropped, not expanded).
func (e *explorer) intern(s lineState, parent int32, a action) int32 {
	k := s.key(e.n)
	if id, ok := e.ids[k]; ok {
		return id
	}
	if len(e.states) >= e.maxStates {
		e.dropped++
		return -1
	}
	id := int32(len(e.states))
	e.ids[k] = id
	e.states = append(e.states, s)
	e.parents = append(e.parents, parent)
	e.acts = append(e.acts, a)
	return id
}

// pathTo reconstructs the discovery path of state id from the parent edges.
func (e *explorer) pathTo(id int32) []action {
	var rev []action
	for id > 0 {
		rev = append(rev, e.acts[id])
		id = e.parents[id]
	}
	out := make([]action, len(rev))
	for i, a := range rev {
		out[len(rev)-1-i] = a
	}
	return out
}

// report records violations found in state id itself (the initial state).
func (e *explorer) report(id int32, viols []stepViolation) {
	for _, v := range viols {
		e.record(v, e.pathTo(id))
	}
}

// reportVia records violations exposed by applying a to state parent.
func (e *explorer) reportVia(parent int32, a action, viols []stepViolation) {
	if len(viols) == 0 {
		return
	}
	path := append(e.pathTo(parent), a)
	for _, v := range viols {
		e.record(v, path)
	}
}

func (e *explorer) record(v stepViolation, path []action) {
	key := fmt.Sprintf("%s/%d/%v", v.check, v.master, v.state)
	if e.seenViol[key] {
		return
	}
	e.seenViol[key] = true
	names := make([]string, len(path))
	for i, a := range path {
		names[i] = a.String()
	}
	e.violations = append(e.violations, Violation{
		Check:  v.check,
		Master: v.master,
		State:  v.state,
		Path:   names,
		Trace:  e.replay(path),
	})
}

// replay re-executes the guarded-action path from the initial state through
// the same step function the search uses, rendering one line per action.
func (e *explorer) replay(path []action) []string {
	s := lineState{memFresh: true}
	lines := []string{"init                          " + e.render(s)}
	for _, a := range path {
		next, label, _ := e.step(s, a)
		lines = append(lines, fmt.Sprintf("%-30s%s", label, e.render(next)))
		s = next
	}
	return lines
}

// render prints a state: per-master coherence state, '*' marks a copy
// holding the globally newest value, '+' marks a TAG-CAM entry.
func (e *explorer) render(s lineState) string {
	var b strings.Builder
	for i := 0; i < e.n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "P%d:%v", i, s.cache[i])
		if s.fresh[i] {
			b.WriteByte('*')
		}
		if s.cam[i] {
			b.WriteByte('+')
		}
	}
	if s.memFresh {
		b.WriteString(" mem*")
	} else {
		b.WriteString(" mem")
	}
	return b.String()
}

// checkState evaluates the state invariants: reduction-table membership,
// SWMR, single dirty owner, and the TAG-CAM mirror property.
func (e *explorer) checkState(s lineState) []stepViolation {
	var out []stepViolation
	for i := 0; i < e.n; i++ {
		st := s.cache[i]
		if !e.allowed[i].Has(st) {
			out = append(out, stepViolation{core.CheckIllegalState, i, st})
		}
		if e.snoopCAM[i] && st != coherence.Invalid && !s.cam[i] {
			out = append(out, stepViolation{CheckCAMMirror, i, st})
		}
	}
	n := core.CountCopies(s.cache[:e.n])
	if !n.SWMR() {
		out = append(out, stepViolation{core.CheckSWMR, n.Writer, s.cache[n.Writer]})
	}
	if !n.SingleOwner() {
		out = append(out, stepViolation{core.CheckDirtyOwner, n.Owner, s.cache[n.Owner]})
	}
	return out
}

// step applies action a to state s, returning the successor, a label listing
// the guarded actions that fired (bus op, wrapper conversions, snoop
// reactions, ISR drains), and any data-value violations the action exposed.
func (e *explorer) step(s lineState, a action) (lineState, string, []stepViolation) {
	i := a.master
	var viols []stepViolation
	var parts []string

	switch a.kind {
	case actRead:
		if s.cache[i] != coherence.Invalid {
			if !s.fresh[i] {
				viols = append(viols, stepViolation{core.CheckStaleRead, i, s.cache[i]})
			}
			return s, fmt.Sprintf("%v hit", a), viols
		}
		shared, fillFresh, _ := e.broadcast(&s, i, coherence.BusRd, &parts)
		st := e.protos[i].FillStateAfterRead(e.sampleShared(i, shared))
		s.cache[i] = st
		s.fresh[i] = fillFresh
		if e.snoopCAM[i] {
			s.cam[i] = true
		}
		if !fillFresh {
			viols = append(viols, stepViolation{CheckStaleFill, i, st})
		}
		return s, e.label(a, "BusRd", parts), viols

	case actWrite:
		var updated []int
		op := ""
		if s.cache[i] == coherence.Invalid {
			if e.protos[i].UpdateBased() {
				// Dragon write miss: fill with a read, then write like a hit.
				shared, fillFresh, _ := e.broadcast(&s, i, coherence.BusRd, &parts)
				st := e.protos[i].FillStateAfterRead(e.sampleShared(i, shared))
				if !fillFresh {
					viols = append(viols, stepViolation{CheckStaleFill, i, st})
				}
				s.cache[i] = st
				s.fresh[i] = fillFresh
				var broadcast bool
				updated, broadcast = e.dragonWrite(&s, i, &parts)
				op = "BusRd"
				if broadcast {
					op = "BusRd+BusUpd"
				}
			} else {
				e.broadcast(&s, i, coherence.BusRdX, &parts)
				s.cache[i] = e.protos[i].FillStateAfterWrite()
				if e.snoopCAM[i] {
					s.cam[i] = true
				}
				op = "BusRdX"
			}
		} else {
			if !s.fresh[i] {
				// Writing one word into a line whose other words are stale
				// corrupts the line.
				viols = append(viols, stepViolation{CheckStaleWrite, i, s.cache[i]})
			}
			if e.protos[i].UpdateBased() {
				var broadcast bool
				updated, broadcast = e.dragonWrite(&s, i, &parts)
				op = "hit"
				if broadcast {
					op = "BusUpd"
				}
			} else {
				next, _, needsBus, err := e.protos[i].OnWriteHit(s.cache[i])
				if err != nil {
					panic(err)
				}
				if needsBus {
					e.broadcast(&s, i, coherence.BusUpgr, &parts)
					op = "BusUpgr"
				} else {
					op = "hit"
				}
				s.cache[i] = next
			}
		}
		// The write creates the globally newest value; masters that applied
		// a Dragon bus update received it too.
		for j := 0; j < e.n; j++ {
			s.fresh[j] = j == i
		}
		for _, j := range updated {
			s.fresh[j] = true
		}
		s.memFresh = false
		return s, e.label(a, op, parts), viols

	default: // actEvict
		op := "silent"
		if s.cache[i].Dirty() {
			// Dirty copy: the write-back makes memory as fresh as the copy
			// was, and the snoop logic observes the WriteLine.
			s.memFresh = s.fresh[i]
			if e.snoopCAM[i] {
				s.cam[i] = false
			}
			op = "wb"
		}
		// A clean drop is invisible on the bus: a TAG-CAM entry stays
		// behind, stale (snooplogic Table rule "foreign-hit" then finds
		// nothing to drain — the spurious-hit path).
		s.cache[i] = coherence.Invalid
		return s, e.label(a, op, parts), viols
	}
}

func (e *explorer) label(a action, op string, parts []string) string {
	l := a.String() + " " + op
	if len(parts) > 0 {
		l += "[" + strings.Join(parts, " ") + "]"
	}
	return l
}

// sampleShared maps the combined snoop shared signal to what master i's fill
// actually samples: the wrapper override in ModeWrapped, nothing in the
// other modes (ModeUnwired leaves the shared line unwired across protocol
// conventions; ModeNoSnoop has no snoopers to assert it).
func (e *explorer) sampleShared(i int, shared bool) bool {
	if e.cfg.Mode == ModeWrapped {
		return e.policies[i].ApplyShared(shared)
	}
	return false
}

// broadcast presents op from requester to every other master, mutating s
// with the snoop reactions, and returns the combined shared signal, the
// freshness of the data the requester will receive (from memory or a
// supplier), and which masters applied a Dragon word update in place.
func (e *explorer) broadcast(s *lineState, req int, op coherence.BusOp, parts *[]string) (shared, fillFresh bool, updated []int) {
	fillFresh = s.memFresh
	for j := 0; j < e.n; j++ {
		if j == req || e.cfg.Mode == ModeNoSnoop {
			continue
		}
		if e.snoopCAM[j] {
			if !s.cam[j] {
				continue
			}
			// TAG-CAM match: ARTRY + nFIQ + ISR, collapsed into one atomic
			// guarded action (the retried transaction proceeds only after
			// Complete, so no other action can interleave).  The ISR drains
			// a modified line or invalidates a clean one; a stale entry is a
			// spurious hit (snooplogic Table rules foreign-hit → isr-drain-
			// writeback/isr-complete).
			switch {
			case s.cache[j].Dirty():
				s.memFresh = s.fresh[j]
				fillFresh = s.memFresh
				*parts = append(*parts, fmt.Sprintf("P%d:isr-drain", j))
			case s.cache[j] != coherence.Invalid:
				*parts = append(*parts, fmt.Sprintf("P%d:isr-inval", j))
			default:
				*parts = append(*parts, fmt.Sprintf("P%d:isr-spurious", j))
			}
			s.cache[j] = coherence.Invalid
			s.cam[j] = false
			continue
		}
		if s.cache[j] == coherence.Invalid {
			continue
		}
		seen := op
		if e.cfg.Mode == ModeWrapped {
			seen = e.policies[j].SnoopOp(op)
		}
		out, err := e.protos[j].OnSnoop(s.cache[j], seen)
		if err != nil {
			if e.cfg.Mode == ModeWrapped {
				// A reduced system never presents an op outside the
				// snooper's protocol; reaching here is a model bug.
				panic(err)
			}
			// An un-integrated snooper ignores an op outside its protocol
			// (a Dragon BusUpd means nothing to an invalidation snooper):
			// the copy silently goes stale — the defect the positive
			// control demonstrates.
			*parts = append(*parts, fmt.Sprintf("P%d:ignores-%v", j, seen))
			continue
		}
		if out.Supply && (e.cfg.Mode != ModeWrapped || !e.policies[j].AllowCacheToCache) {
			// Suppressed cache-to-cache: drain to memory instead.
			out.Supply = false
			out.Flush = true
			if out.Next == coherence.Owned {
				out.Next = coherence.Shared
			}
		}
		if out.Flush {
			s.memFresh = s.fresh[j]
			fillFresh = s.memFresh
		}
		if out.Supply {
			fillFresh = s.fresh[j]
		}
		if out.Update {
			updated = append(updated, j)
		}
		shared = shared || out.AssertShared
		e.describeSnoop(parts, j, s.cache[j], out, seen != op)
		s.cache[j] = out.Next
	}
	return shared, fillFresh, updated
}

func (e *explorer) describeSnoop(parts *[]string, j int, old coherence.State, out coherence.SnoopOutcome, converted bool) {
	tags := ""
	if converted {
		tags += "~conv"
	}
	if out.Flush {
		tags += "~flush"
	}
	if out.Supply {
		tags += "~supply"
	}
	if out.Update {
		tags += "~upd"
	}
	if out.AssertShared {
		tags += "~shd"
	}
	if old == out.Next && tags == "" {
		return
	}
	*parts = append(*parts, fmt.Sprintf("P%d:%v>%v%s", j, old, out.Next, tags))
}

// dragonWrite applies an update-based write hit on master i: silent for
// exclusive states, a BusUpd broadcast (with ownership resolved from the
// sampled shared signal) for shared ones.  It returns the masters whose
// copies were updated in place and whether a broadcast happened.
func (e *explorer) dragonWrite(s *lineState, i int, parts *[]string) ([]int, bool) {
	next, op, needsBus, err := e.protos[i].OnWriteHit(s.cache[i])
	if err != nil {
		panic(err)
	}
	if !needsBus {
		s.cache[i] = next
		return nil, false
	}
	if op != coherence.BusUpd {
		panic(fmt.Sprintf("explore: update-based write hit issued %v", op))
	}
	shared, _, updated := e.broadcast(s, i, coherence.BusUpd, parts)
	s.cache[i] = e.protos[i].AfterUpdate(e.sampleShared(i, shared))
	return updated, true
}

func (e *explorer) result() *Result {
	return &Result{
		Protocols:    e.native,
		Mode:         e.cfg.Mode,
		Effective:    e.effective,
		States:       len(e.states),
		Transitions:  e.transitions,
		FrontierPeak: e.frontierPeak,
		Dropped:      e.dropped,
		Complete:     e.dropped == 0,
		Violations:   e.violations,
		Reachable:    e.reachable,
	}
}

// graphState is one JSONL record of the state-graph dump.
type graphState struct {
	ID       int32         `json:"id"`
	Masters  []graphMaster `json:"masters"`
	MemFresh bool          `json:"mem_fresh"`
	Edges    []graphEdge   `json:"edges,omitempty"`
}

type graphMaster struct {
	Protocol string `json:"protocol"`
	State    string `json:"state"`
	Fresh    bool   `json:"fresh"`
	CAM      bool   `json:"cam,omitempty"`
}

// graphEdge is one guarded-action edge; To is -1 when the successor was
// dropped by the MaxStates bound.
type graphEdge struct {
	Action string `json:"action"`
	Label  string `json:"label,omitempty"`
	To     int32  `json:"to"`
}

func (e *explorer) dumpState(id int32, s lineState, edges []graphEdge) {
	rec := graphState{ID: id, MemFresh: s.memFresh, Edges: edges}
	for i := 0; i < e.n; i++ {
		rec.Masters = append(rec.Masters, graphMaster{
			Protocol: e.native[i].String(),
			State:    s.cache[i].String(),
			Fresh:    s.fresh[i],
			CAM:      s.cam[i],
		})
	}
	b, err := json.Marshal(rec)
	if err != nil {
		panic(err)
	}
	b = append(b, '\n')
	if _, err := e.cfg.Graph.Write(b); err != nil {
		// The dump is diagnostic output; a write failure must not corrupt
		// the census, so it surfaces as a panic rather than silence.
		panic(fmt.Sprintf("explore: graph dump: %v", err))
	}
}
