package span

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"hetcc/internal/bus"
	"hetcc/internal/profile"
)

// CoreInfo is the per-core context Compute needs from the platform.
type CoreInfo struct {
	// Name labels the core in attributions (the processor model).
	Name string
	// ClockDiv is the core's engine divisor (1 = 100 MHz, 2 = 50 MHz); it
	// bounds the engine-cycle width of a CPU-cycle ledger count.
	ClockDiv uint64
	// Halted/HaltCycle report program retirement (cpu.Stats).
	Halted    bool
	HaltCycle uint64
}

// Attribution charges a slice of the critical path to one (component, cause)
// pair.  Component is the processor (or DMA engine) responsible: the
// critical core itself for most causes, the draining master for stalls whose
// blocking transaction was retried behind a remote write-back.
type Attribution struct {
	Component string `json:"component"`
	Cause     string `json:"cause"`
	Cycles    uint64 `json:"cycles"`
}

// CritTxn is one top-K critical-path transaction: a bus transaction the
// critical core spent on-path cycles blocked on.
type CritTxn struct {
	Txn       uint64 `json:"txn"`
	Component string `json:"component"`
	Op        string `json:"op"`
	Addr      string `json:"addr"`
	Submit    uint64 `json:"submit"`
	Complete  uint64 `json:"complete"`
	Retries   int    `json:"retries"`
	// Cycles is the critical-path time attributed to waiting on this
	// transaction.
	Cycles uint64 `json:"cycles"`
}

// CriticalPath is the run's cycle-complete explanation: the critical core's
// timeline [0, TotalCycles) partitioned into (component, cause)
// attributions.  The partition is exhaustive by construction — stalled
// cycles come from the core's profile spans, everything else is charged to
// the core's own "execute" bucket — so the attributions always sum to
// TotalCycles exactly (CyclesAttributed).
type CriticalPath struct {
	// Core is the critical (anchor) core: the last to retire its program,
	// i.e. the core whose timeline bounds the run.
	Core     int    `json:"core"`
	CoreName string `json:"core_name"`
	// TotalCycles is the run length in engine cycles.
	TotalCycles uint64 `json:"total_cycles"`
	// Attribution lists the (component, cause) charges, largest first.
	Attribution []Attribution `json:"attribution"`
	// TopTransactions lists the transactions the critical core spent the
	// most on-path cycles blocked on, largest first.
	TopTransactions []CritTxn `json:"top_transactions,omitempty"`
	// CrossCheckError is empty when the attribution passed the profile
	// ledger cross-check: the attributed total equals TotalCycles, and every
	// per-cause attribution is bounded by the ledger's count for that cause
	// (in engine cycles, i.e. CPU count x ClockDiv).
	CrossCheckError string `json:"cross_check_error,omitempty"`
}

// CyclesAttributed sums the attribution (equals TotalCycles by
// construction; the cross-check asserts it).
func (cp *CriticalPath) CyclesAttributed() uint64 {
	var t uint64
	for _, a := range cp.Attribution {
		t += a.Cycles
	}
	return t
}

// executeCause labels the non-stalled remainder of the critical core's
// timeline (instruction execution, ISR bodies, idle-after-halt of the
// shorter programs never appears — the anchor is the last to halt).
const executeCause = "execute"

// Compute extracts the critical path: the anchor core is the last to halt
// (ties break to the lowest index; if no core halted — a deadlocked or
// budget-capped run — core 0).  Its stall links partition the stalled
// cycles; each is charged to the ledger cause, with the component being the
// draining master when the blocking transaction's retry was causally linked
// to a remote write-back, and the core itself otherwise.  ledger, when
// non-nil, is cross-checked (CrossCheckError).  masterName labels
// components (nil falls back to numeric labels); topK bounds
// TopTransactions (<=0 means 10).
func Compute(c *Collector, total uint64, cores []CoreInfo, ledger *profile.Summary, masterName func(int) string, topK int) *CriticalPath {
	if len(cores) == 0 {
		return nil
	}
	if masterName == nil {
		masterName = func(id int) string { return fmt.Sprintf("master %d", id) }
	}
	if topK <= 0 {
		topK = 10
	}
	anchor := 0
	for i, ci := range cores {
		if ci.Halted && (!cores[anchor].Halted || ci.HaltCycle > cores[anchor].HaltCycle) {
			anchor = i
		}
	}
	cp := &CriticalPath{Core: anchor, CoreName: cores[anchor].Name, TotalCycles: total}

	type key struct {
		component string
		cause     string
	}
	attr := make(map[key]uint64)
	// txnCycles[id] is the anchor's on-path cycles blocked on txn id.
	txnCycles := make([]uint64, len(c.Txns())+1)
	var stalled uint64
	for _, l := range c.Links() {
		if l.Core != anchor {
			continue
		}
		n := l.End - l.Start
		stalled += n
		component := cp.CoreName
		if t := c.get(l.Txn); t != nil {
			txnCycles[l.Txn] += n
			if l.Cause == profile.CauseDrain || l.Cause == profile.CauseRetry {
				// Charge the draining master when the blocking transaction
				// was causally retried behind a remote write-back.
				for i := len(t.Retries) - 1; i >= 0; i-- {
					cause := c.get(t.Retries[i].Cause)
					if cause == nil {
						continue
					}
					if cause.Master != anchor {
						component = masterName(cause.Master)
					}
					break
				}
			}
		}
		attr[key{component, l.Cause.String()}] += n
	}
	if stalled < total {
		attr[key{cp.CoreName, executeCause}] += total - stalled
	}

	for k, n := range attr {
		cp.Attribution = append(cp.Attribution, Attribution{Component: k.component, Cause: k.cause, Cycles: n})
	}
	sort.Slice(cp.Attribution, func(i, j int) bool {
		a, b := cp.Attribution[i], cp.Attribution[j]
		if a.Cycles != b.Cycles {
			return a.Cycles > b.Cycles
		}
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		return a.Cause < b.Cause
	})

	var ids []uint64
	for id, n := range txnCycles {
		if n != 0 {
			ids = append(ids, uint64(id))
		}
	}
	slices.SortFunc(ids, func(a, b uint64) int {
		if c := cmp.Compare(txnCycles[b], txnCycles[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	if len(ids) > topK {
		ids = ids[:topK]
	}
	for _, id := range ids {
		t := c.get(id)
		cp.TopTransactions = append(cp.TopTransactions, CritTxn{
			Txn:       id,
			Component: masterName(t.Master),
			Op:        bus.Kind(t.Kind).String(),
			Addr:      fmt.Sprintf("0x%08x", t.Addr),
			Submit:    t.Submit,
			Complete:  t.Complete,
			Retries:   len(t.Retries),
			Cycles:    txnCycles[id],
		})
	}

	if err := cp.crossCheck(ledger, cores[anchor].ClockDiv); err != nil {
		cp.CrossCheckError = err.Error()
	}
	return cp
}

// crossCheck validates the attribution against the run totals and, when a
// ledger summary is supplied, the profile conservation invariant: the
// attributed per-cause cycles (engine cycles) must not exceed the ledger's
// CPU-cycle count scaled by the core's clock divisor — a div-2 core's
// merged stall span can legitimately cover up to twice its ticked count,
// never more.
func (cp *CriticalPath) crossCheck(ledger *profile.Summary, clockDiv uint64) error {
	if got := cp.CyclesAttributed(); got != cp.TotalCycles {
		return fmt.Errorf("attributed %d cycles, run has %d", got, cp.TotalCycles)
	}
	if ledger == nil {
		return nil
	}
	if clockDiv == 0 {
		clockDiv = 1
	}
	var causes map[string]uint64
	for _, cs := range ledger.Cores {
		if cs.Core == cp.Core {
			causes = cs.Causes
		}
	}
	perCause := make(map[string]uint64)
	for _, a := range cp.Attribution {
		if a.Cause != executeCause {
			perCause[a.Cause] += a.Cycles
		}
	}
	for cause, n := range perCause {
		if bound := causes[cause] * clockDiv; n > bound {
			return fmt.Errorf("cause %q: critical path attributes %d engine cycles, ledger bounds it at %d (%d CPU cycles x div %d)", cause, n, bound, causes[cause], clockDiv)
		}
	}
	return nil
}
