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
// The auditor also accumulates per-line state timelines (transition counts)
// and the per-core observed reachable state set — the machine-checked form
// of the paper's reduction table.
package audit

import (
	"fmt"
	"sort"

	"hetcc/internal/coherence"
	"hetcc/internal/event"
)

// Check names used in Violation.Check.
const (
	CheckSWMR         = "swmr"
	CheckDirtyOwner   = "dirty-owner"
	CheckStaleRead    = "stale-read"
	CheckIllegalState = "illegal-state"
)

// Config configures an Auditor.
type Config struct {
	// Cores is the number of CPU cores (bus masters with caches).  Events
	// attributed to masters outside [0,Cores) — e.g. the DMA engine — are
	// counted but excluded from per-core tracking.
	Cores int
	// Allowed[i] is core i's post-reduction legal state set (Invalid is
	// always legal and need not be listed).  A nil entry disables the
	// reduction-invariant check for that core.
	Allowed [][]coherence.State
	// MaxViolations bounds the retained violation records (default 64); the
	// total count keeps incrementing past the cap.
	MaxViolations int
	// MaxLines bounds the per-line timeline map (default 4096).  State
	// changes on lines beyond the cap skip the cross-core checks and are
	// counted in Summary.UntrackedChanges.
	MaxLines int
}

// Violation is one observed invariant breach.
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
	// Events holds per-kind event counts (filled in by the platform from
	// the sink that fed this auditor).
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
	allowed    []map[coherence.State]bool
	observed   []map[coherence.State]bool
	lines      map[uint32]*lineState
	violations []Violation
	total      uint64
	trans      uint64
	untracked  uint64
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
		allowed:  make([]map[coherence.State]bool, cfg.Cores),
		observed: make([]map[coherence.State]bool, cfg.Cores),
		lines:    make(map[uint32]*lineState),
	}
	for i := 0; i < cfg.Cores; i++ {
		a.observed[i] = map[coherence.State]bool{coherence.Invalid: true}
		if i < len(cfg.Allowed) && cfg.Allowed[i] != nil {
			set := map[coherence.State]bool{coherence.Invalid: true}
			for _, s := range cfg.Allowed[i] {
				set[s] = true
			}
			a.allowed[i] = set
		}
	}
	return a
}

// Handle implements event.Handler.  Only StateChange records drive the
// state-based checks; the other kinds are context carried by the stream.
func (a *Auditor) Handle(r *event.Record) {
	if r.Kind == event.StateChange {
		a.noteState(r)
	}
}

func (a *Auditor) noteState(r *event.Record) {
	core, addr, next := r.Core, r.Addr, r.New
	if core < 0 || core >= a.cfg.Cores {
		return
	}
	a.observed[core][next] = true
	if al := a.allowed[core]; al != nil && !al[next] {
		a.violate(r.Cycle, CheckIllegalState, core, addr,
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
	ls.states[core] = next
	ls.transitions++
	a.trans++
	a.checkLine(r.Cycle, addr, ls)
}

// checkLine enforces SWMR and single-dirty-owner on the line's current
// per-core state vector.
func (a *Auditor) checkLine(cycle uint64, addr uint32, ls *lineState) {
	writer, dirty, valid := -1, -1, 0
	writers, dirties := 0, 0
	for c, st := range ls.states {
		if st == coherence.Invalid {
			continue
		}
		valid++
		if st == coherence.Exclusive || st == coherence.Modified {
			writers++
			writer = c
		}
		if st.Dirty() {
			dirties++
			dirty = c
		}
	}
	if writers > 1 {
		a.violate(cycle, CheckSWMR, writer, addr,
			fmt.Sprintf("%d writable (E/M) copies of one line", writers))
	} else if writers == 1 && valid > 1 {
		a.violate(cycle, CheckSWMR, writer, addr,
			fmt.Sprintf("writable copy (%s on core %d) coexists with %d other valid copies",
				ls.states[writer], writer, valid-1))
	}
	if dirties > 1 {
		a.violate(cycle, CheckDirtyOwner, dirty, addr,
			fmt.Sprintf("%d dirty (M/O) copies of one line", dirties))
	}
}

// StaleRead records a data-value breach: core's program read of addr at
// cycle now returned got where the last program write stored want.
func (a *Auditor) StaleRead(core int, addr, got, want uint32, now uint64) {
	a.violate(now, CheckStaleRead, core, addr, fmt.Sprintf("read %d, want %d", got, want))
}

func (a *Auditor) violate(cycle uint64, check string, core int, addr uint32, detail string) {
	a.total++
	if len(a.violations) < a.cfg.MaxViolations {
		a.violations = append(a.violations, Violation{Cycle: cycle, Check: check, Core: core, Addr: addr, Detail: detail})
	}
}

// Violations returns the retained violation records (first MaxViolations).
func (a *Auditor) Violations() []Violation { return a.violations }

// ViolationCount returns the total number of breaches observed.
func (a *Auditor) ViolationCount() uint64 { return a.total }

// ReachableStates returns core's observed state set sorted in protocol
// order (I < S < E < M < O).
func (a *Auditor) ReachableStates(core int) []coherence.State {
	if core < 0 || core >= a.cfg.Cores {
		return nil
	}
	out := make([]coherence.State, 0, len(a.observed[core]))
	for s := range a.observed[core] {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Summary builds the end-of-run digest (Events is left for the caller to
// fill from the sink).
func (a *Auditor) Summary() Summary {
	s := Summary{
		ViolationCount:   a.total,
		Violations:       a.violations,
		TransitionCount:  a.trans,
		UntrackedChanges: a.untracked,
	}
	for c := 0; c < a.cfg.Cores; c++ {
		states := a.ReachableStates(c)
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
