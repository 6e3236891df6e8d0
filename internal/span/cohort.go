package span

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"hetcc/internal/bus"
)

// Cohort aggregates the bus transactions of one (master, op, line base)
// triple.  Cohorts are the alignment unit of differential run analysis
// (package delta): because transaction ids are assigned in deterministic
// submission order and the workloads are deterministic, the same triple
// names "the same traffic" in two runs of different configurations, so a
// per-cohort delta like "34 extra ARTRY retries on line 0x1f80 from master 1"
// is a meaningful leaf of a cycle-regression explanation.
type Cohort struct {
	Master    int    `json:"master"`
	Component string `json:"component"`
	Op        string `json:"op"`
	// Line is the cache-line base address (hex) the cohort's transactions
	// target.
	Line string `json:"line"`
	// Count is the number of transactions submitted; Retries the total ARTRY
	// epochs across them, of which DrainRetries were drain-qualified.
	Count        int `json:"count"`
	Retries      int `json:"retries"`
	DrainRetries int `json:"drain_retries"`
	// LatencyCycles sums submit→complete over the cohort's completed
	// transactions (engine cycles).
	LatencyCycles uint64 `json:"latency_cycles"`
	// BlockedCycles sums every core's stall-span cycles linked to the
	// cohort's transactions.
	BlockedCycles uint64 `json:"blocked_cycles"`
	// CriticalCycles is the anchor (critical) core's share of BlockedCycles:
	// the cohort's slice of the critical-path partition below.
	CriticalCycles uint64 `json:"critical_cycles"`

	// kind is the raw bus kind Op names, the cohort's sort key after Master.
	kind uint8
}

// CohortSummary is the cohort partition of the critical core's timeline: the
// anchor's [0, TotalCycles) is split into per-cohort blocked cycles, stalls
// linked to no transaction (UnlinkedCycles), and everything else
// (ExecuteCycles).  The partition is exhaustive by construction —
//
//	ExecuteCycles + UnlinkedCycles + Σ cohort.CriticalCycles == TotalCycles
//
// (see Conserved) — so two runs' summaries subtract into an exact per-cohort
// decomposition of their cycle delta.
type CohortSummary struct {
	// Anchor is the critical core whose timeline is partitioned (matches
	// CriticalPath.Core).
	Anchor int `json:"anchor_core"`
	// TotalCycles is the run length in engine cycles.
	TotalCycles uint64 `json:"total_cycles"`
	// ExecuteCycles is the anchor's non-stalled time.
	ExecuteCycles uint64 `json:"execute_cycles"`
	// UnlinkedCycles is anchor stall time linked to no bus transaction
	// (e.g. lock spins between polls).
	UnlinkedCycles uint64 `json:"unlinked_cycles"`
	// Cohorts lists every observed cohort, sorted by (master, op, line).
	Cohorts []Cohort `json:"cohorts"`
}

// Conserved reports whether the anchor-timeline partition is exact:
// execute + unlinked + per-cohort critical cycles sum to TotalCycles.
func (s *CohortSummary) Conserved() bool {
	if s == nil {
		return false
	}
	sum := s.ExecuteCycles + s.UnlinkedCycles
	for _, c := range s.Cohorts {
		sum += c.CriticalCycles
	}
	return sum == s.TotalCycles
}

// cohortKey identifies a cohort before naming.
type cohortKey struct {
	master int
	kind   uint8
	line   uint32
}

// Cohorts aggregates the collector's transactions and stall links into the
// per-(master, op, line) cohort summary.  anchor is the critical core from
// Compute, total the run length; masterName labels components (nil falls
// back to numeric labels).  Call after Finish; returns nil for a nil
// collector.
func Cohorts(c *Collector, anchor int, total uint64, masterName func(int) string) *CohortSummary {
	if c == nil {
		return nil
	}
	if masterName == nil {
		masterName = func(id int) string { return fmt.Sprintf("master %d", id) }
	}
	s := &CohortSummary{Anchor: anchor, TotalCycles: total}
	// index maps a cohort's key to its place in s.Cohorts.
	index := make(map[cohortKey]int)
	get := func(t *Txn) *Cohort {
		k := cohortKey{master: t.Master, kind: t.Kind, line: t.Addr & c.lineMask}
		i, ok := index[k]
		if !ok {
			i = len(s.Cohorts)
			index[k] = i
			s.Cohorts = append(s.Cohorts, Cohort{
				Master:    k.master,
				Component: masterName(k.master),
				Op:        bus.Kind(k.kind).String(),
				Line:      fmt.Sprintf("0x%08x", k.line),
				kind:      k.kind,
			})
		}
		return &s.Cohorts[i]
	}
	for i := range c.txns {
		t := &c.txns[i]
		co := get(t)
		co.Count++
		co.Retries += len(t.Retries)
		for _, ep := range t.Retries {
			if ep.Drain {
				co.DrainRetries++
			}
		}
		if t.Done {
			co.LatencyCycles += t.Complete - t.Submit
		}
	}
	var anchorStalled uint64
	for _, l := range c.links {
		n := l.End - l.Start
		if l.Core == anchor {
			anchorStalled += n
		}
		t := c.get(l.Txn)
		if t == nil {
			if l.Core == anchor {
				s.UnlinkedCycles += n
			}
			continue
		}
		co := get(t)
		co.BlockedCycles += n
		if l.Core == anchor {
			co.CriticalCycles += n
		}
	}
	if anchorStalled < total {
		s.ExecuteCycles = total - anchorStalled
	}

	// Line is fixed-width hex, so its string order is the address order.
	slices.SortFunc(s.Cohorts, func(a, b Cohort) int {
		return cmp.Or(cmp.Compare(a.Master, b.Master), cmp.Compare(a.kind, b.kind), strings.Compare(a.Line, b.Line))
	})
	return s
}
