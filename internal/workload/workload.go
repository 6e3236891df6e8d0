// Package workload generates the paper's microbenchmark programs (Section
// 4): one task per processor, each entering a lock-protected critical
// section, touching and modifying a number of shared cache lines for
// exec_time iterations, and exiting.
//
// Scenarios:
//
//   - WCS (worst case): both tasks keep accessing the *same* blocks of
//     memory, so every critical section conflicts with the previous one;
//   - BCS (best case): only one task (the ARM920T in the paper) uses the
//     critical section, so under the proposed solution nothing ever needs
//     to be drained;
//   - TCS (typical case): each task randomly picks a shared block among 10
//     before entering the critical section.
//
// Under the Software strategy the generator appends the explicit per-line
// drain (clean) instructions the programmer must add before releasing the
// lock; the other strategies need none.
package workload

import (
	"fmt"
	"math"

	"hetcc/internal/isa"
	"hetcc/internal/platform"
	"hetcc/internal/sim"
)

// Scenario selects the microbenchmark shape.
type Scenario uint8

const (
	// WCS is the worst-case scenario.
	WCS Scenario = iota
	// TCS is the typical-case scenario.
	TCS
	// BCS is the best-case scenario.
	BCS
)

// String names the scenario as in the paper.
func (s Scenario) String() string {
	switch s {
	case WCS:
		return "WCS"
	case TCS:
		return "TCS"
	case BCS:
		return "BCS"
	default:
		return fmt.Sprintf("Scenario(%d)", uint8(s))
	}
}

// Scenarios lists all three in the paper's order.
func Scenarios() []Scenario { return []Scenario{WCS, BCS, TCS} }

// Alternate reports whether the paper's strict lock alternation applies:
// it does whenever more than one task contends (WCS, TCS), and must not
// when only one task enters the critical section (BCS).
func (s Scenario) Alternate() bool { return s != BCS }

// Params parameterises the microbenchmark.
type Params struct {
	// Lines is the number of cache lines accessed per iteration (the
	// x-axis of Figures 5–7).
	Lines int
	// ExecTime is the paper's exec_time: inner iterations over the lines
	// within one critical section.
	ExecTime int
	// Iterations is the number of critical-section entries per
	// participating task.
	Iterations int
	// WordsPerLine is how many words of each line an iteration touches
	// (read + modify); defaults to the full 8-word line.
	WordsPerLine int
	// Blocks is the TCS shared-block pool size (paper: 10).
	Blocks int
	// CSTask is the task that enters the critical section in BCS
	// (default 1: the ARM920T on the PowerPC755+ARM920T platform).
	CSTask int
	// Seed drives the TCS random block selection.
	Seed uint64
	// BlockAffinityPct (0..100) is the probability that a TCS task keeps
	// its previous block instead of re-picking uniformly.  The paper
	// underspecifies the TCS selection dynamics; its Figure 7 sits much
	// closer to the best case than the worst, implying strong temporal
	// locality, which this knob models (default 75).
	BlockAffinityPct int
	// LineBytes is the platform line size (default 32).
	LineBytes int
	// PreDelay is think-time in CPU cycles before each lock acquisition
	// (the TCS "picks up shared blocks ... before getting into the
	// critical section" computation).
	PreDelay int
}

// Defaults fills zero fields with the paper-derived defaults.
func (p Params) Defaults() Params {
	if p.Lines == 0 {
		p.Lines = 8
	}
	if p.ExecTime == 0 {
		p.ExecTime = 1
	}
	if p.Iterations == 0 {
		p.Iterations = 8
	}
	if p.WordsPerLine == 0 {
		p.WordsPerLine = 8
	}
	if p.Blocks == 0 {
		p.Blocks = 10
	}
	if p.CSTask == 0 {
		p.CSTask = 1
	}
	if p.LineBytes == 0 {
		p.LineBytes = 32
	}
	if p.Seed == 0 {
		p.Seed = 0x9e3779b9
	}
	if p.BlockAffinityPct == 0 {
		p.BlockAffinityPct = 75
	}
	if p.PreDelay == 0 {
		p.PreDelay = 8
	}
	return p
}

// Validate rejects inconsistent parameters.
func (p Params) Validate() error {
	if p.LineBytes <= 0 || p.LineBytes%4 != 0 {
		return fmt.Errorf("workload: line size must be a positive multiple of 4, got %d", p.LineBytes)
	}
	// A block holds blockStride bytes, so its lines never reach the next;
	// Value keeps the line number in 8 bits, so it never repeats.
	if n := min(blockStride/p.LineBytes, maxLines); p.Lines <= 0 || p.Lines > n {
		return fmt.Errorf("workload: lines must be 1..%d, got %d", n, p.Lines)
	}
	if p.ExecTime <= 0 {
		return fmt.Errorf("workload: exec_time must be positive, got %d", p.ExecTime)
	}
	// Value keeps the round number in 12 bits: more rounds would repeat
	// store values the golden model assumes are unique.
	if p.Iterations <= 0 || p.Iterations > maxIterations {
		return fmt.Errorf("workload: iterations must be 1..%d, got %d", maxIterations, p.Iterations)
	}
	// Value keeps the word index in 7 bits.
	if n := min(p.LineBytes/4, maxWordsPerLine); p.WordsPerLine <= 0 || p.WordsPerLine > n {
		return fmt.Errorf("workload: words per line must be 1..%d, got %d", n, p.WordsPerLine)
	}
	if p.Blocks <= 0 || p.Blocks > maxBlocks {
		return fmt.Errorf("workload: blocks must be 1..%d, got %d", maxBlocks, p.Blocks)
	}
	if p.BlockAffinityPct < 0 || p.BlockAffinityPct > 100 {
		return fmt.Errorf("workload: block affinity must be 0..100%%, got %d", p.BlockAffinityPct)
	}
	// A delay op's count is 32 bits wide.
	if p.PreDelay > math.MaxInt32 {
		return fmt.Errorf("workload: pre-delay must be at most %d cycles, got %d", math.MaxInt32, p.PreDelay)
	}
	return nil
}

const (
	// blockStride separates shared blocks so they never share cache lines.
	blockStride = 0x1000
	maxBlocks   = 64
	// The widths of Value's round, line and word fields.
	maxIterations   = 0x1000
	maxLines        = 0x100
	maxWordsPerLine = 0x80
)

// BlockBase returns the base address of shared block b.
func BlockBase(b int) uint32 {
	return platform.SharedBase + uint32(b)*blockStride
}

// LineAddr returns the address of line l within block b.
func (p Params) LineAddr(block, line int) uint32 {
	return BlockBase(block) + uint32(line*p.LineBytes)
}

// Value encodes a unique, nonzero store value identifying task, round,
// line and word — the golden-model checker relies on uniqueness.
func Value(task, round, line, word int) uint32 {
	return uint32(task+1)<<28 | uint32(round&0xfff)<<16 | uint32(line&0xff)<<8 | uint32(word&0x7f+1)
}

// Programs generates one program per task.  In BCS only CSTask runs the
// critical-section loop; the other tasks halt immediately (the paper:
// "the PowerPC755 does not access it").
func Programs(s Scenario, p Params, sol platform.Solution, tasks int) ([]isa.Program, error) {
	p = p.Defaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if tasks <= 0 {
		return nil, fmt.Errorf("workload: need at least one task")
	}
	if s == BCS && (p.CSTask < 0 || p.CSTask >= tasks) {
		return nil, fmt.Errorf("workload: BCS CS task %d out of range for %d tasks", p.CSTask, tasks)
	}
	progs := make([]isa.Program, tasks)
	for t := 0; t < tasks; t++ {
		if s == BCS && t != p.CSTask {
			progs[t] = isa.NewBuilder().Halt()
			continue
		}
		progs[t] = buildTask(s, p, sol, t)
	}
	return progs, nil
}

// taskLen is the exact op count of a buildTask program, so the program is
// allocated once at its final length.
func taskLen(p Params, sol platform.Solution) int {
	round := 2 + 2*p.ExecTime*p.Lines*p.WordsPerLine // lock, read+write per word, unlock
	if p.PreDelay > 0 {
		round++
	}
	if sol == platform.Software {
		round += p.Lines // one clean per line
	}
	return p.Iterations*round + 1 // + halt
}

func buildTask(s Scenario, p Params, sol platform.Solution, task int) isa.Program {
	rng := sim.NewRNG(p.Seed + uint64(task)*0x9e3779b97f4a7c15)
	b := isa.NewBuilderSize(taskLen(p, sol))
	block := 0
	for round := 0; round < p.Iterations; round++ {
		if s == TCS && (round == 0 || rng.Intn(100) >= p.BlockAffinityPct) {
			block = rng.Intn(p.Blocks)
		}
		if p.PreDelay > 0 {
			b.Delay(p.PreDelay)
		}
		b.Lock(0)
		for e := 0; e < p.ExecTime; e++ {
			for l := 0; l < p.Lines; l++ {
				base := p.LineAddr(block, l)
				for w := 0; w < p.WordsPerLine; w++ {
					addr := base + uint32(4*w)
					b.Read(addr)
					b.Write(addr, Value(task, round, l, w))
				}
			}
		}
		if sol == platform.Software {
			// The programmer must drain/invalidate every used line before
			// leaving the critical section (paper Section 4).
			for l := 0; l < p.Lines; l++ {
				b.Clean(p.LineAddr(block, l))
			}
		}
		b.Unlock(0)
	}
	return b.Halt()
}

// Footprint returns every shared word a run with these parameters can
// touch (tests use it to cross-check final memory against the golden
// model).
func (p Params) Footprint(s Scenario) []uint32 {
	p = p.Defaults()
	blocks := 1
	if s == TCS {
		blocks = p.Blocks
	}
	var out []uint32
	for blk := 0; blk < blocks; blk++ {
		for l := 0; l < p.Lines; l++ {
			base := p.LineAddr(blk, l)
			for w := 0; w < p.WordsPerLine; w++ {
				out = append(out, base+uint32(4*w))
			}
		}
	}
	return out
}
