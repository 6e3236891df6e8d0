package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hetcc/internal/coherence"
	"hetcc/internal/explore"
	"hetcc/internal/stats"
)

// exploreKinds is the full protocol alphabet of the -explore matrix,
// including the coherence-less marker.
var exploreKinds = []coherence.Kind{
	coherence.MEI, coherence.MSI, coherence.MESI,
	coherence.MOESI, coherence.Dragon, coherence.None,
}

// graphSink wraps the optional JSONL state-graph file: before each
// exploration it writes a header record naming the combination, so one file
// holds the whole matrix.
type graphSink struct {
	w *bufio.Writer
}

func newGraphSink(path string) (*graphSink, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	w := bufio.NewWriter(f)
	closeFn := func() error {
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return &graphSink{w: w}, closeFn, nil
}

func (g *graphSink) begin(kinds []coherence.Kind, mode explore.Mode) io.Writer {
	if g == nil {
		return nil
	}
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	hdr, _ := json.Marshal(map[string]any{"combo": strings.Join(names, "+"), "mode": mode.String()})
	g.w.Write(append(hdr, '\n'))
	return g.w
}

// exploreMatrix runs the exhaustive sweep over every 2-master protocol
// multiset, wrapped and unwired, printing the state/transition census and
// gating on: zero wrapped violations, complete sweeps, at least one unwired
// defect (the positive control), and the wall-clock budget.
func exploreMatrix(graphPath string, budget time.Duration, maxStates int) error {
	start := time.Now()
	graph, closeGraph, err := newGraphSink(graphPath)
	if err != nil {
		return err
	}

	t := stats.NewTable("Exhaustive reachability over the protocol product FSMs (2 masters, one line, symbolic data)",
		"P0", "P1", "mode", "effective", "states", "transitions", "violations", "verdict")
	var (
		wrappedBad     int
		unwiredDefects int
		totalStates    int
		totalTrans     int
		firstWrapped   *explore.Violation
		firstDefect    *explore.Violation
		defectLabel    string
	)
	for i, a := range exploreKinds {
		for _, b := range exploreKinds[i:] {
			kinds := []coherence.Kind{a, b}
			label := fmt.Sprintf("%v+%v", a, b)

			res, err := explore.Explore(explore.Config{
				Protocols: kinds, Mode: explore.ModeWrapped,
				MaxStates: maxStates, Graph: graph.begin(kinds, explore.ModeWrapped),
			})
			switch {
			case err != nil && strings.Contains(err.Error(), "Dragon"):
				// The reduction rejects update×invalidate mixes by design;
				// the unwired row below shows the defect that justifies it.
				t.AddRow(a, b, "wrapped", "-", "-", "-", "-", "REJECTED (update-based mix, by design)")
			case err != nil:
				return fmt.Errorf("%s wrapped: %w", label, err)
			default:
				totalStates += res.States
				totalTrans += res.Transitions
				verdict := "PROVED"
				if !res.Complete {
					verdict = fmt.Sprintf("OVERFLOW (%d dropped)", res.Dropped)
					wrappedBad++
				}
				if n := len(res.Violations); n > 0 {
					verdict = fmt.Sprintf("VIOLATIONS(%d)", n)
					wrappedBad++
					if firstWrapped == nil {
						v := res.Violations[0]
						firstWrapped = &v
					}
				}
				t.AddRow(a, b, "wrapped", res.Effective, res.States, res.Transitions, len(res.Violations), verdict)
			}

			res, err = explore.Explore(explore.Config{
				Protocols: kinds, Mode: explore.ModeUnwired,
				MaxStates: maxStates, Graph: graph.begin(kinds, explore.ModeUnwired),
			})
			if err != nil {
				return fmt.Errorf("%s unwired: %w", label, err)
			}
			totalStates += res.States
			totalTrans += res.Transitions
			verdict := "coherent"
			if n := len(res.Violations); n > 0 {
				verdict = fmt.Sprintf("DEFECT(%s)", res.Violations[0].Check)
				unwiredDefects += n
				if firstDefect == nil {
					v := res.Violations[0]
					firstDefect = &v
					defectLabel = label
				}
			}
			t.AddRow(a, b, "unwired", "-", res.States, res.Transitions, len(res.Violations), verdict)
		}
	}
	t.Render(os.Stdout)
	elapsed := time.Since(start)
	fmt.Printf("\ncensus: %d states, %d transitions explored in %v\n", totalStates, totalTrans, elapsed.Round(time.Millisecond))

	if firstWrapped != nil {
		fmt.Printf("\nwrapped violation — counterexample replay:\n")
		printTrace(*firstWrapped)
	}
	if firstDefect != nil {
		fmt.Printf("\npositive control — first defect without wrappers (%s): %v\n", defectLabel, *firstDefect)
		printTrace(*firstDefect)
	}
	if err := closeGraph(); err != nil {
		return err
	}

	var fails []string
	if wrappedBad > 0 {
		fails = append(fails, fmt.Sprintf("%d wrapped exploration(s) violated invariants or overflowed", wrappedBad))
	}
	if unwiredDefects == 0 {
		fails = append(fails, "positive control failed: no defects found without wrappers")
	}
	if elapsed > budget {
		fails = append(fails, fmt.Sprintf("sweep took %v, budget %v", elapsed.Round(time.Millisecond), budget))
	}
	if len(fails) > 0 {
		return fmt.Errorf("explore: %s", strings.Join(fails, "; "))
	}
	fmt.Println("all wrapped product FSMs PROVED coherent over every reachable state; un-wrapped defects confirmed the controls")
	return nil
}

// exploreOne explores a single combination (2..4 masters) in all three
// hardware modes, with per-master reachable/eliminated sets and full
// counterexample replays.
func exploreOne(kinds []coherence.Kind, graphPath string, maxStates int) error {
	graph, closeGraph, err := newGraphSink(graphPath)
	if err != nil {
		return err
	}
	fmt.Printf("protocols: %v\n", kinds)
	violated := false
	for _, mode := range []explore.Mode{explore.ModeWrapped, explore.ModeUnwired, explore.ModeNoSnoop} {
		res, err := explore.Explore(explore.Config{
			Protocols: kinds, Mode: mode,
			MaxStates: maxStates, Graph: graph.begin(kinds, mode),
		})
		if err != nil {
			if mode == explore.ModeWrapped {
				// Rejected reductions are a result, not a failure: the
				// unwired mode below demonstrates why.
				fmt.Printf("\n[%v] reduction rejected: %v\n", mode, err)
				continue
			}
			return err
		}
		fmt.Printf("\n[%v] %d states, %d transitions, peak frontier %d", mode, res.States, res.Transitions, res.FrontierPeak)
		if mode == explore.ModeWrapped {
			fmt.Printf(", effective %v", res.Effective)
		}
		if !res.Complete {
			fmt.Printf(" — INCOMPLETE, %d states dropped", res.Dropped)
			violated = true
		}
		fmt.Println()
		for i, states := range res.Reachable {
			printReachable(fmt.Sprintf("P%d (%v)", i, kinds[i]), kinds[i], states, "eliminated")
		}
		switch {
		case len(res.Violations) == 0 && mode == explore.ModeWrapped:
			fmt.Println("  PROVED: no invariant violation in any reachable state")
		case len(res.Violations) == 0:
			fmt.Println("  no invariant violation in any reachable state")
		default:
			if mode == explore.ModeWrapped {
				violated = true
			}
			fmt.Printf("  %d violation(s); first counterexample:\n", len(res.Violations))
			printTrace(res.Violations[0])
		}
	}
	if err := closeGraph(); err != nil {
		return err
	}
	if violated {
		return fmt.Errorf("wrapped exploration of %v violated invariants", kinds)
	}
	return nil
}

// printReachable prints one master's reachable states and, under label, the
// states of its native protocol the exploration proved unreachable.  A
// coherence-less master's private cache behaves as MEI.
func printReachable(master string, k coherence.Kind, reachable coherence.StateSet, label string) {
	if k == coherence.None {
		k = coherence.MEI
	}
	fmt.Printf("  %s reachable: %v", master, reachable)
	if gone := coherence.New(k).States() &^ reachable; gone != 0 {
		fmt.Printf("   %s: %v", label, gone)
	}
	fmt.Println()
}

func printTrace(v explore.Violation) {
	fmt.Printf("  %v\n", v)
	for _, l := range v.Trace {
		fmt.Printf("    %s\n", l)
	}
}
