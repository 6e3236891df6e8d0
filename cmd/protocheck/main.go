// Command protocheck is the protocol-integration checker: for every pair
// (or a chosen combination) of coherence protocols it prints the paper's
// reduction — effective protocol, per-processor wrapper policy — and
// model-checks the result with the exhaustive explorer of internal/explore,
// proving which states the wrappers eliminate and demonstrating the
// staleness defect the un-integrated system would have.
//
// Usage:
//
//	protocheck                     # full pairwise matrix
//	protocheck -protocols MEI,MESI # one combination (2..4 masters, NONE included)
//	protocheck -replay             # also replay Tables 2/3 on the full simulator
//	protocheck -audit              # machine-verify the reduction table on live runs
//	protocheck -audit -jobs 8      # ... fanned across 8 simulation workers
//	protocheck -explore            # exhaustive BFS over every 2-master product FSM
//	protocheck -explore -protocols MESI,NONE   # one combination, all hardware modes
//	protocheck -explore -graph states.jsonl    # ...dumping the full state graph
//
// -explore enumerates every reachable state of the abstract protocol product
// machine (internal/explore) rather than simulating workloads: with wrappers
// it proves the reduction table over the whole reachable set, and without
// them it exhibits the staleness defects the wrappers exist to remove.
// NONE marks a master with no coherence hardware (TAG-CAM snoop logic).
//
// Any verification failure — a model-check violation of the requested
// combination, a live-run audit violation, an exploration invariant breach,
// a frontier overflow, or a blown -explore-budget — makes the command exit
// non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"hetcc"
	"hetcc/internal/coherence"
	"hetcc/internal/core"
	"hetcc/internal/explore"
	"hetcc/internal/platform"
	"hetcc/internal/stats"
)

var jobs = flag.Int("jobs", runtime.NumCPU(), "parallel simulation workers for the -audit sweep")

func main() {
	var (
		protoFlag  = flag.String("protocols", "", "comma-separated protocol list of 2..4 masters (MEI, MSI, MESI, MOESI, Dragon, NONE); empty = full pairwise matrix")
		replay     = flag.Bool("replay", false, "replay the paper's Table 2/3 sequences on the cycle-level simulator")
		auditRun   = flag.Bool("audit", false, "run the protocol-pair matrix and the paper's platforms on the cycle-level simulator with the invariant auditor, checking observed states against the reduction table")
		dotFlag    = flag.String("dot", "", "print the named protocol's state machine as a Graphviz digraph and exit")
		exploreRun = flag.Bool("explore", false, "exhaustively enumerate the reachable states of the abstract protocol product machine, proving the reduction table (or, with -protocols, one combination in every hardware mode)")
		graphFlag  = flag.String("graph", "", "with -explore: write the explored state graph as JSONL to this file")
		budget     = flag.Duration("explore-budget", 60*time.Second, "with -explore: wall-clock budget for the full matrix sweep")
		maxStates  = flag.Int("max-states", explore.DefaultMaxStates, "with -explore: frontier bound per exploration (overflow fails the sweep)")
	)
	flag.Parse()

	if *dotFlag != "" {
		kinds, err := parseProtocols(*dotFlag + "," + *dotFlag) // reuse the 2..4 parser
		fatalIf(err)
		fmt.Print(coherence.New(kinds[0]).Dot())
		return
	}

	if *exploreRun {
		if *protoFlag != "" {
			kinds, err := parseProtocols(*protoFlag)
			fatalIf(err)
			fatalIf(exploreOne(kinds, *graphFlag, *maxStates))
		} else {
			fatalIf(exploreMatrix(*graphFlag, *budget, *maxStates))
		}
		return
	}

	if *protoFlag != "" {
		kinds, err := parseProtocols(*protoFlag)
		fatalIf(err)
		fatalIf(check(kinds))
	} else {
		all := []coherence.Kind{coherence.MEI, coherence.MSI, coherence.MESI, coherence.MOESI}
		t := stats.NewTable("Protocol reduction matrix (paper Section 2)",
			"P0", "P1", "effective", "P0 policy", "P1 policy", "verified", "states explored")
		for i, a := range all {
			for j, b := range all {
				if j < i {
					continue
				}
				kinds := []coherence.Kind{a, b}
				integ, err := core.Reduce(kinds)
				fatalIf(err)
				res, err := explore.Explore(explore.Config{Protocols: kinds, Mode: explore.ModeWrapped})
				fatalIf(err)
				verdict := "SOUND"
				if len(res.Violations) > 0 {
					verdict = "VIOLATIONS"
				}
				t.AddRow(a, b, integ.Effective, integ.Policies[0], integ.Policies[1], verdict, res.States)
			}
		}
		t.Render(os.Stdout)
		fmt.Println()

		// The defect matrix: what happens WITHOUT the wrappers.
		d := stats.NewTable("Un-integrated (no wrappers): model-checked defects",
			"P0", "P1", "defect")
		for i, a := range all {
			for j, b := range all {
				if j < i {
					continue
				}
				// Homogeneous systems have compatible signals, so their
				// wrappers pass everything through (MOESI keeps
				// cache-to-cache supply); heterogeneous shared-signal
				// conventions are not wired together.
				mode := explore.ModeUnwired
				if a == b {
					mode = explore.ModeWrapped
				}
				res, err := explore.Explore(explore.Config{Protocols: []coherence.Kind{a, b}, Mode: mode})
				fatalIf(err)
				defect := "none"
				for _, v := range res.Violations {
					if strings.HasPrefix(v.Check, "stale") {
						defect = v.String()
						break
					}
				}
				d.AddRow(a, b, defect)
			}
		}
		d.Render(os.Stdout)
		fmt.Println()
	}

	if *auditRun {
		fatalIf(auditMatrix())
	}

	if *replay {
		fmt.Println("Replaying the paper's Table 2 and Table 3 sequences on the cycle-level simulator:")
		for _, n := range []int{2, 3} {
			var broken, fixed hetcc.SequenceResult
			var err error
			if n == 2 {
				broken, fixed, err = hetcc.Table2()
			} else {
				broken, fixed, err = hetcc.Table3()
			}
			fatalIf(err)
			fmt.Printf("\nTable %d (%v + %v):\n", n, broken.Protocols[0], broken.Protocols[1])
			for i := range broken.Steps {
				fmt.Printf("  %s: no-wrapper states [%v %v]   wrapped states [%v %v]\n",
					broken.Steps[i].Label,
					broken.Steps[i].States[0], broken.Steps[i].States[1],
					fixed.Steps[i].States[0], fixed.Steps[i].States[1])
			}
			fmt.Printf("  stale read without wrappers: %v; with wrappers: %v\n", broken.StaleRead, fixed.StaleRead)
		}
	}
}

// auditMatrix machine-verifies the paper's reduction table on live runs: for
// every protocol pair (and the three case-study platforms) it simulates a
// small WCS workload under the proposed solution with the invariant auditor
// on, then checks that the states each cache actually reached fall inside
// core.AllowedStates for the reduction — the dynamic counterpart of the
// static model check above.
func auditMatrix() error {
	type combo struct {
		label string
		procs []platform.ProcessorSpec
	}
	var combos []combo
	all := []coherence.Kind{coherence.MEI, coherence.MSI, coherence.MESI, coherence.MOESI}
	for i, a := range all {
		for j, b := range all {
			if j < i {
				continue
			}
			combos = append(combos, combo{
				label: fmt.Sprintf("%v+%v", a, b),
				procs: []platform.ProcessorSpec{
					platform.Generic("P0-"+a.String(), a, 1),
					platform.Generic("P1-"+b.String(), b, 1),
				},
			})
		}
	}
	combos = append(combos,
		combo{label: "PF1 (ARM+ARM)", procs: platform.ARMPair()},
		combo{label: "PF2 (PPC+ARM)", procs: platform.PPCARm()},
		combo{label: "PF3 (PPC+i486)", procs: platform.PPCI486()},
	)

	// The matrix fans out across the deterministic batch executor; rows are
	// aggregated in combo order, so the table is byte-identical whatever the
	// worker count.
	specs := make([]hetcc.BatchSpec, len(combos))
	for i, c := range combos {
		specs[i] = hetcc.BatchSpec{
			Label: c.label,
			Config: hetcc.Config{
				Scenario:   hetcc.WCS,
				Solution:   hetcc.Proposed,
				Processors: c.procs,
				Params:     hetcc.Params{Lines: 8, ExecTime: 1, Iterations: 4, WordsPerLine: 8},
				Verify:     true,
				Audit:      true,
				MaxCycles:  5_000_000,
			},
		}
	}
	results := hetcc.RunBatch(specs, hetcc.BatchOptions{Jobs: *jobs})

	t := stats.NewTable("Reduction table, machine-verified on live runs (WCS, proposed solution)",
		"platform", "effective", "P0 observed", "P1 observed", "violations", "verdict")
	failures := 0
	for i, c := range combos {
		if err := results[i].Err; err != nil {
			return err
		}
		res := results[i].Result
		if res.Err != nil {
			return fmt.Errorf("%s: run failed: %w", c.label, res.Err)
		}
		a := res.Audit
		protocols := make([]coherence.Kind, len(c.procs))
		for i, spec := range c.procs {
			protocols[i] = spec.Protocol
		}
		integ, err := core.Reduce(protocols)
		if err != nil {
			return err
		}
		// The auditor counts every state outside the reduction table's
		// allowed set as an illegal-state violation.
		verdict := "PASS"
		if a.ViolationCount > 0 || !res.Coherent() {
			verdict = "FAIL"
			failures++
		}
		observed := make([]string, len(a.Reachable))
		for i, states := range a.Reachable {
			observed[i] = "{" + strings.Join(states, ",") + "}"
		}
		t.AddRow(c.label, integ.Effective, observed[0], observed[1], a.ViolationCount, verdict)
	}
	t.Render(os.Stdout)
	if failures > 0 {
		return fmt.Errorf("%d platform(s) violated the reduction table", failures)
	}
	fmt.Println("\nall observed state sets fall within the paper's reduction table; zero invariant violations")
	return nil
}

// parseProtocols reads a comma-separated list of 2..explore.MaxMasters
// protocol names; "none" is a master without coherence hardware, for which
// core.Reduce plans TAG-CAM snoop logic.
func parseProtocols(s string) ([]coherence.Kind, error) {
	var out []coherence.Kind
	for _, part := range strings.Split(s, ",") {
		if strings.TrimSpace(part) == "" {
			return nil, fmt.Errorf("empty protocol name in %q", s)
		}
		k, err := platform.ParseProtocol(part)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	if len(out) < 2 || len(out) > explore.MaxMasters {
		return nil, fmt.Errorf("need 2..%d protocols, got %d", explore.MaxMasters, len(out))
	}
	return out, nil
}

func check(kinds []coherence.Kind) error {
	integ, err := core.Reduce(kinds)
	if err != nil {
		return err
	}
	fmt.Printf("protocols: %v\n", kinds)
	fmt.Printf("platform class: %v\n", integ.Class)
	fmt.Printf("effective protocol: %v\n", integ.Effective)
	for i, p := range integ.Policies {
		fmt.Printf("  P%d (%v): wrapper %v\n", i, kinds[i], p)
	}
	res, err := explore.Explore(explore.Config{Protocols: kinds, Mode: explore.ModeWrapped})
	if err != nil {
		return err
	}
	fmt.Printf("model check: %d abstract states explored\n", res.States)
	for i, states := range res.Reachable {
		printReachable(fmt.Sprintf("P%d", i), kinds[i], states, "eliminated by wrappers")
	}
	if len(res.Violations) == 0 {
		fmt.Println("result: SOUND (no stale reads, no out-of-protocol states)")
		return nil
	}
	fmt.Printf("result: %d VIOLATIONS\n", len(res.Violations))
	for _, v := range res.Violations {
		fmt.Printf("  %v\n", v)
	}
	// A violated combination is a failed check: exit non-zero instead of
	// only printing the verdict.
	return fmt.Errorf("%d model-check violation(s) for %v", len(res.Violations), kinds)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "protocheck:", err)
		os.Exit(1)
	}
}
