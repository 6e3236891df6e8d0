// Package memory models the SoC main memory and its controller timing.
//
// The paper's Table 4 fixes the memory access time at 6 bus cycles for a
// single word and 6 + 1 per subsequent word for a burst: a full 8-word cache
// line therefore costs 13 bus cycles, the "13-cycle miss penalty" of the
// abstract.  Figure 8 sweeps this penalty up to 96 cycles; Timing.Scale
// reproduces that sweep.
//
// An important subtlety from the paper's Section 2: the read-to-write
// conversion performed by the wrappers is visible only to snooping cache
// controllers — "the memory controller should see the actual operation in
// order to access the memory correctly".  The bus therefore always hands
// this package the original, unconverted operation.
package memory

import "fmt"

// WordBytes is the machine word size (32-bit words throughout).
const WordBytes = 4

// Timing holds the memory controller latencies in bus cycles.
type Timing struct {
	// SingleWord is the latency of a one-word access.
	SingleWord int
	// BurstFirst is the latency of the first word of a burst.
	BurstFirst int
	// BurstPerWord is the latency of each subsequent burst word.
	BurstPerWord int
}

// DefaultTiming is the paper's Table 4 configuration: 6 cycles single word,
// 6 + 7x1 = 13 cycles for an 8-word burst.
func DefaultTiming() Timing {
	return Timing{SingleWord: 6, BurstFirst: 6, BurstPerWord: 1}
}

// ScaledTiming returns the Figure 8 configuration whose 8-word burst (miss
// penalty) costs burstTotal cycles.  The single-word latency scales
// proportionally to the paper's 6:13 baseline ratio, and the per-word burst
// increment keeps the paper's 1:6 relationship to the first-word latency.
func ScaledTiming(burstTotal int) Timing {
	if burstTotal < 8 {
		burstTotal = 8
	}
	// Solve first + 7*per = burstTotal with per = max(1, first/6) like the
	// baseline (first=6, per=1).
	first := (burstTotal * 6) / 13
	if first < 1 {
		first = 1
	}
	per := (burstTotal - first) / 7
	if per < 1 {
		per = 1
	}
	first = burstTotal - 7*per
	if first < 1 {
		first = 1
	}
	single := first
	return Timing{SingleWord: single, BurstFirst: first, BurstPerWord: per}
}

// BurstLatency returns the bus cycles needed to transfer words words.
func (t Timing) BurstLatency(words int) int {
	if words <= 0 {
		return 0
	}
	if words == 1 {
		return t.SingleWord
	}
	return t.BurstFirst + (words-1)*t.BurstPerWord
}

// Memory is a sparse word-addressed RAM.  Addresses are byte addresses and
// must be word aligned.
type Memory struct {
	// words holds only nonzero words: a store of 0 clears the word, so
	// Footprint counts what a real RAM would hold beyond its zeroed state.
	words Words

	// Reads and Writes count word-granularity accesses for the statistics
	// report.
	Reads  uint64
	Writes uint64
}

// New returns an empty (all-zero) memory.
func New() *Memory { return &Memory{} }

func checkAligned(addr uint32) {
	if addr%WordBytes != 0 {
		panic(fmt.Sprintf("memory: unaligned word address 0x%08x", addr))
	}
}

// ReadWord returns the word at byte address addr.
func (m *Memory) ReadWord(addr uint32) uint32 {
	checkAligned(addr)
	m.Reads++
	return m.words.Load(addr)
}

// WriteWord stores v at byte address addr.
func (m *Memory) WriteWord(addr uint32, v uint32) {
	checkAligned(addr)
	m.Writes++
	m.set(addr, v)
}

func (m *Memory) set(addr, v uint32) {
	if v == 0 {
		m.words.Clear(addr)
		return
	}
	m.words.Store(addr, v)
}

// ReadLine copies the words words starting at the line-aligned address base
// into dst.
func (m *Memory) ReadLine(base uint32, dst []uint32) {
	for i := range dst {
		dst[i] = m.ReadWord(base + uint32(i*WordBytes))
	}
}

// WriteLine stores src at the line-aligned address base.
func (m *Memory) WriteLine(base uint32, src []uint32) {
	for i, v := range src {
		m.WriteWord(base+uint32(i*WordBytes), v)
	}
}

// Peek reads without counting statistics (for assertions and golden-model
// comparison in tests).
func (m *Memory) Peek(addr uint32) uint32 {
	checkAligned(addr)
	return m.words.Load(addr)
}

// Poke writes without counting statistics.
func (m *Memory) Poke(addr uint32, v uint32) {
	checkAligned(addr)
	m.set(addr, v)
}

// Footprint returns the number of nonzero words resident (for tests).
func (m *Memory) Footprint() int { return m.words.Len() }
