// Package audit implements the online coherence invariant auditor.  It
// subscribes to the typed event stream of package event and checks, as the
// simulation runs:
//
//   - SWMR (single-writer/multiple-reader): a line with a writable copy
//     (Exclusive or Modified) has no other valid copy anywhere.
//   - Single dirty owner: at most one Modified/Owned copy of a line exists.
//   - Data-value invariant: a program read of a shared word returns the
//     value of the last program write (reported by the platform's golden
//     model through StaleRead).
//   - Wrapper-reduction invariants: every state a core's cache reaches is in
//     the post-reduction allowed set computed by core.AllowedStates — no
//     Shared copies under force-deassert, no Exclusive under force-assert,
//     no S/O states anywhere when the effective protocol is MEI (with the
//     MSI-in-MEI exception, where MSI's S behaves as E).
//
// The copy invariants and the check names are defined once, in package core,
// and shared with the exhaustive explorer.  The auditor also accumulates
// per-line state timelines (transition counts), the per-core observed
// reachable state set — the machine-checked form of the paper's reduction
// table — and the count of records it consumed per event kind.
package audit

import (
	"fmt"
	"sort"

	"hetcc/internal/coherence"
	"hetcc/internal/core"
	"hetcc/internal/event"
)

// Config configures an Auditor.
type Config struct {
	// Cores is the number of CPU cores (bus masters with caches).  Events
	// attributed to masters outside [0,Cores) — e.g. the DMA engine — are
	// counted but excluded from per-core tracking.
	Cores int
	// Allowed[i] is core i's post-reduction legal state set (Invalid is
	// always legal and need not be listed).  An empty set disables the
	// reduction-invariant check for that core.
	Allowed []coherence.StateSet
	// MaxViolations bounds the retained violation records (default 64); the
	// total count keeps incrementing past the cap.
	MaxViolations int
	// MaxLines bounds the per-line timeline map (default 4096).  State
	// changes on lines beyond the cap skip the cross-core checks and are
	// counted in Summary.UntrackedChanges.
	MaxLines int
}

// Violation is one observed invariant breach.
// Its Check is one of the core.Check* names.
type Violation struct {
	Cycle  uint64 `json:"cycle"`
	Check  string `json:"check"`
	Core   int    `json:"core"`
	Addr   uint32 `json:"addr"`
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s: core %d addr 0x%08x: %s", v.Cycle, v.Check, v.Core, v.Addr, v.Detail)
}

// LineSummary is one line's timeline digest.
type LineSummary struct {
	Addr        string `json:"addr"`
	Transitions uint64 `json:"transitions"`
}

// Summary is the auditor's end-of-run digest.  It marshals
// deterministically: maps have sorted keys under encoding/json, and slices
// are emitted in fixed (core index / address) order.
type Summary struct {
	// Events holds the non-zero per-kind counts of the records the
	// auditor consumed, keyed by event.Kind.String().
	Events map[string]uint64 `json:"events_by_kind,omitempty"`
	// ViolationCount is the total number of breaches observed; Violations
	// retains the first MaxViolations of them.
	ViolationCount uint64      `json:"violation_count"`
	Violations     []Violation `json:"violations,omitempty"`
	// Reachable[i] is core i's observed reachable state set, sorted in
	// protocol order (I, S, E, M, O) — the measured counterpart of the
	// paper's reduction table.
	Reachable [][]string `json:"reachable_states"`
	// TransitionCount totals state transitions across all tracked lines;
	// Lines breaks them down per line, sorted by address.
	TransitionCount  uint64        `json:"transition_count"`
	Lines            []LineSummary `json:"lines,omitempty"`
	UntrackedChanges uint64        `json:"untracked_state_changes,omitempty"`
}

// lineState is a line's live per-core state vector and transition count.
type lineState struct {
	states      []coherence.State
	transitions uint64
}

// Auditor consumes the event stream and the golden model's stale-read
// reports and checks the invariants described in the package comment.  It
// is not safe for concurrent use (the simulation kernel is single-threaded).
type Auditor struct {
	cfg        Config
	allowed    []coherence.StateSet
	observed   []coherence.StateSet
	lines      map[uint32]*lineState
	violations []Violation
	total      uint64
	trans      uint64
	untracked  uint64
	// events counts the consumed records per kind.
	events [event.NumKinds]uint64
}

// New creates an auditor for cfg.
func New(cfg Config) *Auditor {
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = 64
	}
	if cfg.MaxLines <= 0 {
		cfg.MaxLines = 4096
	}
	a := &Auditor{
		cfg:      cfg,
		allowed:  make([]coherence.StateSet, cfg.Cores),
		observed: make([]coherence.StateSet, cfg.Cores),
		lines:    make(map[uint32]*lineState),
	}
	for i := 0; i < cfg.Cores; i++ {
		a.observed[i].Add(coherence.Invalid)
		if i < len(cfg.Allowed) && cfg.Allowed[i] != 0 {
			a.allowed[i] = cfg.Allowed[i]
			a.allowed[i].Add(coherence.Invalid)
		}
	}
	return a
}

// Handle implements event.Handler.  It counts every record by kind; only
// StateChange records drive the state-based checks, the other kinds are
// context carried by the stream.
func (a *Auditor) Handle(r *event.Record) {
	a.events[r.Kind]++
	if r.Kind == event.StateChange {
		a.noteState(r)
	}
}

func (a *Auditor) noteState(r *event.Record) {
	c, addr, next := r.Core, r.Addr, r.New
	if c < 0 || c >= a.cfg.Cores {
		return
	}
	a.observed[c].Add(next)
	if al := a.allowed[c]; al != 0 && !al.Has(next) {
		a.violate(r.Cycle, core.CheckIllegalState, c, addr,
			fmt.Sprintf("state %s outside the reduced protocol's allowed set", next))
	}
	ls := a.lines[addr]
	if ls == nil {
		if len(a.lines) >= a.cfg.MaxLines {
			a.untracked++
			return
		}
		ls = &lineState{states: make([]coherence.State, a.cfg.Cores)}
		a.lines[addr] = ls
	}
	ls.states[c] = next
	ls.transitions++
	a.trans++
	a.checkLine(r.Cycle, addr, ls)
}

// checkLine enforces SWMR and single-dirty-owner on the line's current
// per-core state vector.
func (a *Auditor) checkLine(cycle uint64, addr uint32, ls *lineState) {
	n := core.CountCopies(ls.states)
	if n.Writable > 1 {
		a.violate(cycle, core.CheckSWMR, n.Writer, addr,
			fmt.Sprintf("%d writable (E/M) copies of one line", n.Writable))
	} else if !n.SWMR() {
		a.violate(cycle, core.CheckSWMR, n.Writer, addr,
			fmt.Sprintf("writable copy (%s on core %d) coexists with %d other valid copies",
				ls.states[n.Writer], n.Writer, n.Valid-1))
	}
	if !n.SingleOwner() {
		a.violate(cycle, core.CheckDirtyOwner, n.Owner, addr,
			fmt.Sprintf("%d dirty (M/O) copies of one line", n.Dirty))
	}
}

// StaleRead records a data-value breach: core's program read of addr at
// cycle now returned got where the last program write stored want.
func (a *Auditor) StaleRead(c int, addr, got, want uint32, now uint64) {
	a.violate(now, core.CheckStaleRead, c, addr, fmt.Sprintf("read %d, want %d", got, want))
}

func (a *Auditor) violate(cycle uint64, check string, c int, addr uint32, detail string) {
	a.total++
	if len(a.violations) < a.cfg.MaxViolations {
		a.violations = append(a.violations, Violation{Cycle: cycle, Check: check, Core: c, Addr: addr, Detail: detail})
	}
}

// Violations returns the retained violation records (first MaxViolations).
func (a *Auditor) Violations() []Violation { return a.violations }

// ViolationCount returns the total number of breaches observed.
func (a *Auditor) ViolationCount() uint64 { return a.total }

// Summary builds the end-of-run digest.
func (a *Auditor) Summary() Summary {
	s := Summary{
		ViolationCount:   a.total,
		Violations:       a.violations,
		TransitionCount:  a.trans,
		UntrackedChanges: a.untracked,
		Events:           make(map[string]uint64),
	}
	for k, n := range a.events {
		if n > 0 {
			s.Events[event.Kind(k).String()] = n
		}
	}
	for _, observed := range a.observed {
		states := observed.States()
		names := make([]string, len(states))
		for i, st := range states {
			names[i] = st.String()
		}
		s.Reachable = append(s.Reachable, names)
	}
	addrs := make([]uint32, 0, len(a.lines))
	for addr := range a.lines {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, addr := range addrs {
		s.Lines = append(s.Lines, LineSummary{
			Addr:        fmt.Sprintf("0x%08x", addr),
			Transitions: a.lines[addr].transitions,
		})
	}
	return s
}
