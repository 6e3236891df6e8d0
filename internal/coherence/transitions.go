package coherence

import "fmt"

// Transition is one edge of a protocol state machine, in the conventional
// "event / action" labelling of coherence diagrams.
type Transition struct {
	From   State
	To     State
	Event  string // PrRd, PrWr, BusRd, BusRdX, BusUpgr, BusUpd
	Action string // bus op issued or snoop action taken ("" = none)
}

// Label renders the conventional "event/action" edge label.
func (t Transition) Label() string {
	if t.Action == "" {
		return t.Event
	}
	return t.Event + " / " + t.Action
}

// Transitions enumerates the protocol's full edge set: processor-side
// allocations and write hits plus every snoop-side transition.  Self-loops
// with no action (read hits, snoops that keep the state) are omitted to
// match textbook diagrams.
func (p *Protocol) Transitions() []Transition {
	var out []Transition
	add := func(from, to State, event, action string) {
		if from == to && action == "" {
			return
		}
		out = append(out, Transition{From: from, To: to, Event: event, Action: action})
	}

	// Processor-side: fills from Invalid.
	if p.UpdateBased() {
		add(Invalid, p.fillRead(false), "PrRd(!S)", "BusRd")
		add(Invalid, p.fillRead(true), "PrRd(S)", "BusRd")
		// Update-based write miss: fill then write like a hit.
		add(Invalid, Modified, "PrWr(!S)", "BusRd")
		add(Invalid, p.AfterUpdate(true), "PrWr(S)", "BusRd+BusUpd")
	} else {
		fe, fs := p.fillRead(false), p.fillRead(true)
		if fe == fs {
			add(Invalid, fe, "PrRd", "BusRd")
		} else {
			add(Invalid, fe, "PrRd(!S)", "BusRd")
			add(Invalid, fs, "PrRd(S)", "BusRd")
		}
		add(Invalid, Modified, "PrWr", "BusRdX")
	}

	// Processor-side: write hits.
	for from, e := range p.writeHit {
		action := ""
		if e.bus {
			action = e.op.String()
			if e.op == BusUpd {
				// The post-update state depends on the shared signal.
				add(from, Owned, "PrWr(S)", action)
				add(from, Modified, "PrWr(!S)", action)
				continue
			}
		}
		add(from, e.next, "PrWr", action)
	}

	// Snoop-side.
	for from, row := range p.snoop {
		for op, outc := range row {
			var action string
			switch {
			case outc.Flush:
				action = "flush"
			case outc.Supply:
				action = "supply"
			case outc.Update:
				action = "update"
			}
			if outc.AssertShared {
				if action != "" {
					action += "+shd"
				} else {
					action = "shd"
				}
			}
			add(from, outc.Next, op.String(), action)
		}
	}
	return out
}

// Dot renders the protocol as a Graphviz digraph suitable for inclusion in
// documentation ("dot -Tsvg").
func (p *Protocol) Dot() string {
	out := fmt.Sprintf("digraph %s {\n  rankdir=LR;\n  node [shape=circle];\n", p.kind)
	for _, s := range p.states.States() {
		out += fmt.Sprintf("  %s;\n", s)
	}
	for _, t := range p.Transitions() {
		out += fmt.Sprintf("  %s -> %s [label=%q];\n", t.From, t.To, t.Label())
	}
	return out + "}\n"
}
