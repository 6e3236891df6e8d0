package workload

import (
	"math"
	"testing"
	"testing/quick"

	"hetcc/internal/isa"
	"hetcc/internal/platform"
)

func TestDefaults(t *testing.T) {
	p := Params{}.Defaults()
	if p.Lines == 0 || p.ExecTime == 0 || p.Iterations == 0 || p.WordsPerLine != 8 || p.Blocks != 10 || p.LineBytes != 32 {
		t.Fatalf("defaults %+v", p)
	}
}

func TestValidateBounds(t *testing.T) {
	bad := []Params{
		{Lines: -1, LineBytes: 32},
		{Lines: blockStride/32 + 1, LineBytes: 32},
		{Lines: 1, ExecTime: -1, LineBytes: 32},
		{Lines: 1, ExecTime: 1, Iterations: -1, LineBytes: 32},
		{Lines: 1, ExecTime: 1, Iterations: 1, WordsPerLine: 9, LineBytes: 32},
		{Lines: 1, ExecTime: 1, Iterations: 1, WordsPerLine: 1, Blocks: maxBlocks + 1, LineBytes: 32},
		{Lines: 1, ExecTime: 1, Iterations: 1, WordsPerLine: 1, Blocks: 1, LineBytes: 32, BlockAffinityPct: 101},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d (%+v) validated", i, p)
		}
	}
}

// TestParamsValidate: each row changes one field of the defaults and
// states whether Validate must accept it.
func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		set  func(*Params)
		ok   bool
	}{
		{"defaults", func(*Params) {}, true},
		{"32-byte lines fill a block", func(p *Params) { p.Lines = 128 }, true},
		{"32-byte lines overrun a block", func(p *Params) { p.Lines = 129 }, false},
		{"64-byte lines fill a block", func(p *Params) { p.LineBytes, p.Lines = 64, 64 }, true},
		{"64-byte lines overrun a block", func(p *Params) { p.LineBytes, p.Lines = 64, 128 }, false},
		{"line size not a word multiple", func(p *Params) { p.LineBytes = 30 }, false},
		{"negative line size", func(p *Params) { p.LineBytes = -32 }, false},
		{"8-byte lines fill the 8-bit line field", func(p *Params) { p.LineBytes, p.Lines, p.WordsPerLine = 8, 256, 2 }, true},
		{"8-byte lines overflow the 8-bit line field", func(p *Params) { p.LineBytes, p.Lines, p.WordsPerLine = 8, 257, 2 }, false},
		{"words fill the 7-bit word field", func(p *Params) { p.LineBytes, p.Lines, p.WordsPerLine = 1024, 4, 128 }, true},
		{"words overflow the 7-bit word field", func(p *Params) { p.LineBytes, p.Lines, p.WordsPerLine = 1024, 4, 129 }, false},
		{"round number fills 12 bits", func(p *Params) { p.Iterations = 4096 }, true},
		{"round number overflows 12 bits", func(p *Params) { p.Iterations = 4097 }, false},
		{"pre-delay fills a delay op's 32-bit count", func(p *Params) { p.PreDelay = math.MaxInt32 }, true},
		{"pre-delay overflows a delay op's 32-bit count", func(p *Params) { p.PreDelay = math.MaxInt32 + 1 }, false},
	}
	for _, c := range cases {
		p := Params{}.Defaults()
		c.set(&p)
		if err := p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestProgramsExactSize: every generated program is one allocation of its
// final length.
func TestProgramsExactSize(t *testing.T) {
	for _, p := range []Params{
		{},
		{Lines: 32, ExecTime: 4, Iterations: 48},
		{Lines: 3, ExecTime: 2, Iterations: 5, WordsPerLine: 3, PreDelay: -1},
		{Lines: 64, LineBytes: 64, WordsPerLine: 16, Iterations: 2},
	} {
		for _, s := range Scenarios() {
			for _, sol := range platform.Solutions() {
				progs, err := Programs(s, p, sol, 3)
				if err != nil {
					t.Fatal(err)
				}
				for task, prog := range progs {
					if len(prog) != cap(prog) {
						t.Errorf("%+v %v/%v task %d: len %d cap %d", p, s, sol, task, len(prog), cap(prog))
					}
				}
			}
		}
	}
}

func TestScenarioStringsAndAlternation(t *testing.T) {
	if WCS.String() != "WCS" || TCS.String() != "TCS" || BCS.String() != "BCS" {
		t.Fatal("scenario names")
	}
	if !WCS.Alternate() || !TCS.Alternate() || BCS.Alternate() {
		t.Fatal("alternation flags wrong")
	}
	if len(Scenarios()) != 3 {
		t.Fatal("scenario list")
	}
}

func TestProgramsStructureWCS(t *testing.T) {
	p := Params{Lines: 4, ExecTime: 2, Iterations: 3, WordsPerLine: 2}
	progs, err := Programs(WCS, p, platform.Proposed, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 2 {
		t.Fatalf("%d programs", len(progs))
	}
	for task, prog := range progs {
		if err := prog.Validate(); err != nil {
			t.Fatalf("task %d: %v", task, err)
		}
		wantAccess := 3 * 2 * 4 * 2 // iter * exec * lines * words
		if prog.Reads() != wantAccess || prog.Writes() != wantAccess {
			t.Fatalf("task %d: %d reads %d writes, want %d", task, prog.Reads(), prog.Writes(), wantAccess)
		}
		locks, unlocks, cleans := countKind(prog, isa.LockAcquire), countKind(prog, isa.LockRelease), countKind(prog, isa.CleanLine)
		if locks != 3 || unlocks != 3 {
			t.Fatalf("task %d: %d locks %d unlocks", task, locks, unlocks)
		}
		if cleans != 0 {
			t.Fatalf("task %d: proposed solution has %d cleans", task, cleans)
		}
	}
}

func TestSoftwareSolutionAddsDrains(t *testing.T) {
	p := Params{Lines: 5, ExecTime: 1, Iterations: 2, WordsPerLine: 1}
	progs, err := Programs(WCS, p, platform.Software, 2)
	if err != nil {
		t.Fatal(err)
	}
	for task, prog := range progs {
		if got := countKind(prog, isa.CleanLine); got != 2*5 {
			t.Fatalf("task %d: %d cleans, want 10 (lines per CS exit)", task, got)
		}
	}
}

func TestBCSOnlyCSTaskWorks(t *testing.T) {
	p := Params{Lines: 2, ExecTime: 1, Iterations: 2, CSTask: 1}
	progs, err := Programs(BCS, p, platform.Proposed, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs[0]) != 1 || progs[0][0].Kind != isa.Halt {
		t.Fatalf("non-CS task program %v, want immediate halt", progs[0])
	}
	if progs[1].Reads() == 0 {
		t.Fatal("CS task does nothing")
	}
}

func TestBCSCSTaskRange(t *testing.T) {
	if _, err := Programs(BCS, Params{Lines: 1, CSTask: 5}, platform.Proposed, 2); err == nil {
		t.Fatal("out-of-range CS task accepted")
	}
}

func TestWCSTasksShareBlockZero(t *testing.T) {
	p := Params{Lines: 2, ExecTime: 1, Iterations: 2, WordsPerLine: 1}
	progs, _ := Programs(WCS, p, platform.Proposed, 2)
	for task, prog := range progs {
		for _, op := range prog {
			if op.Kind == isa.Read || op.Kind == isa.Write {
				if op.Addr < BlockBase(0) || op.Addr >= BlockBase(1) {
					t.Fatalf("task %d accesses 0x%x outside block 0", task, op.Addr)
				}
			}
		}
	}
}

func TestTCSPicksMultipleBlocksDeterministically(t *testing.T) {
	p := Params{Lines: 1, ExecTime: 1, Iterations: 50, WordsPerLine: 1, Seed: 7, BlockAffinityPct: 1}
	a, _ := Programs(TCS, p, platform.Proposed, 2)
	b, _ := Programs(TCS, p, platform.Proposed, 2)
	if len(a[0]) != len(b[0]) {
		t.Fatal("nondeterministic program length")
	}
	for i := range a[0] {
		if a[0][i] != b[0][i] {
			t.Fatalf("nondeterministic op %d", i)
		}
	}
	blocks := map[uint32]bool{}
	for _, op := range a[0] {
		if op.Kind == isa.Read {
			blocks[(op.Addr-platform.SharedBase)/0x1000] = true
		}
	}
	if len(blocks) < 3 {
		t.Fatalf("TCS with low affinity visited only %d blocks", len(blocks))
	}
}

func TestTCSAffinityKeepsBlocks(t *testing.T) {
	p := Params{Lines: 1, ExecTime: 1, Iterations: 50, WordsPerLine: 1, Seed: 7, BlockAffinityPct: 100}
	progs, _ := Programs(TCS, p, platform.Proposed, 1)
	blocks := map[uint32]bool{}
	for _, op := range progs[0] {
		if op.Kind == isa.Read {
			blocks[(op.Addr-platform.SharedBase)/0x1000] = true
		}
	}
	if len(blocks) != 1 {
		t.Fatalf("full affinity visited %d blocks, want 1", len(blocks))
	}
}

func TestValuesUniquePerSite(t *testing.T) {
	seen := map[uint32]bool{}
	for task := 0; task < 2; task++ {
		for round := 0; round < 4; round++ {
			for line := 0; line < 4; line++ {
				for word := 0; word < 8; word++ {
					v := Value(task, round, line, word)
					if v == 0 {
						t.Fatal("zero value emitted")
					}
					if seen[v] {
						t.Fatalf("duplicate value %#x", v)
					}
					seen[v] = true
				}
			}
		}
	}
}

func TestFootprintCoversProgramAddresses(t *testing.T) {
	p := Params{Lines: 3, ExecTime: 1, Iterations: 4, WordsPerLine: 2, Seed: 3}.Defaults()
	for _, s := range Scenarios() {
		fp := map[uint32]bool{}
		for _, a := range p.Footprint(s) {
			fp[a] = true
		}
		progs, err := Programs(s, p, platform.Software, 2)
		if err != nil {
			t.Fatal(err)
		}
		for task, prog := range progs {
			for _, op := range prog {
				if op.Kind == isa.Read || op.Kind == isa.Write {
					if !fp[op.Addr] {
						t.Fatalf("%v task %d: 0x%x outside footprint", s, task, op.Addr)
					}
				}
			}
		}
	}
}

// TestProgramsAlwaysValidate: any parameter combination either errors or
// produces validating programs for all scenarios and solutions.
func TestProgramsAlwaysValidate(t *testing.T) {
	f := func(lines, exec, iters, words uint8, seed uint64) bool {
		p := Params{
			Lines:        int(lines%32) + 1,
			ExecTime:     int(exec%4) + 1,
			Iterations:   int(iters%6) + 1,
			WordsPerLine: int(words%8) + 1,
			Seed:         seed,
		}
		for _, s := range Scenarios() {
			for _, sol := range platform.Solutions() {
				progs, err := Programs(s, p, sol, 2)
				if err != nil {
					return false
				}
				for _, prog := range progs {
					if prog.Validate() != nil {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func countKind(p isa.Program, k isa.Kind) int {
	n := 0
	for _, op := range p {
		if op.Kind == k {
			n++
		}
	}
	return n
}
