package explore

import (
	"strings"
	"testing"

	"hetcc/internal/coherence"
	"hetcc/internal/core"
)

// FuzzReduceAndExplore: any mix of 2..MaxMasters masters drawn from all six
// kinds (one byte per master, None included) either fails Reduce with an
// error naming Dragon, or yields policies whose wrapped exploration is a
// complete sweep with zero violations.
func FuzzReduceAndExplore(f *testing.F) {
	f.Add([]byte{1, 3})
	f.Add([]byte{2, 4})
	f.Add([]byte{5, 5})
	f.Add([]byte{0, 1})
	f.Fuzz(func(t *testing.T, mix []byte) {
		if len(mix) < 2 || len(mix) > MaxMasters {
			return
		}
		kinds := make([]coherence.Kind, len(mix))
		for i, b := range mix {
			kinds[i] = coherence.Kind(b % 6) // None..Dragon
		}
		if _, err := core.Reduce(kinds); err != nil {
			if !strings.Contains(err.Error(), "Dragon") {
				t.Fatalf("Reduce(%v) rejected a mix without naming Dragon: %v", kinds, err)
			}
			return
		}
		res, err := Explore(Config{Protocols: kinds, Mode: ModeWrapped})
		if err != nil {
			t.Fatalf("Explore(%v): %v", kinds, err)
		}
		if !res.Complete {
			t.Fatalf("Explore(%v): incomplete sweep (%d dropped)", kinds, res.Dropped)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("Reduce(%v) produced unsound policies: %v", kinds, res.Violations[0])
		}
	})
}
