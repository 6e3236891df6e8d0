package platform_test

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"hetcc/internal/coherence"
	"hetcc/internal/core"
	"hetcc/internal/cpu"
	"hetcc/internal/isa"
	"hetcc/internal/memory"
	. "hetcc/internal/platform"
	"hetcc/internal/workload"
)

func buildPF2(t *testing.T, sol Solution) *Platform {
	t.Helper()
	p, err := Build(Config{
		Processors: PPCARm(),
		Solution:   sol,
		Lock:       LockChoice{Kind: LockUncachedTAS, Alternate: true, SpinDelay: 4},
		Verify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildValidations(t *testing.T) {
	if _, err := Build(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	specs := PPCARm()
	specs[0].Cache.LineBytes = 64
	if _, err := Build(Config{Processors: specs}); err == nil {
		t.Error("heterogeneous line sizes accepted")
	}
	bad := PPCARm()
	bad[0].Cache.SizeBytes = 100
	if _, err := Build(Config{Processors: bad}); err == nil {
		t.Error("invalid cache geometry accepted")
	}
}

func TestBuildWiresPF2Topology(t *testing.T) {
	p := buildPF2(t, Proposed)
	if p.Integration.Class != core.PF2 {
		t.Fatalf("class %v", p.Integration.Class)
	}
	if p.SnoopLogics[0] != nil {
		t.Error("coherent PPC got snoop logic")
	}
	if p.SnoopLogics[1] == nil {
		t.Error("ARM missing snoop logic")
	}
	if p.Wrappers[1] != nil {
		t.Error("coherence-less ARM got a wrapper")
	}
	if p.Wrappers[0] == nil {
		t.Error("PPC missing wrapper")
	}
	if p.Integration.LockCaveat == "" {
		t.Error("PF2 missing lock caveat")
	}
}

func TestBaselineSolutionsHaveNoCoherenceHardware(t *testing.T) {
	for _, sol := range []Solution{CacheDisabled, Software} {
		p := buildPF2(t, sol)
		for i := range p.CPUs {
			if p.SnoopLogics[i] != nil || p.Wrappers[i] != nil {
				t.Errorf("%v: core %d has coherence hardware", sol, i)
			}
		}
	}
}

func TestHardwareLockRegisterWired(t *testing.T) {
	p, err := Build(Config{
		Processors: PPCARm(),
		Solution:   Proposed,
		Lock:       LockChoice{Kind: LockHardwareRegister},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.LockReg == nil || p.LockReg.Base() != LockRegisterAddr {
		t.Fatal("lock register not wired")
	}
}

func TestRegionPredicates(t *testing.T) {
	if !InShared(SharedBase) || !InShared(SharedBase+SharedSize-4) || InShared(SharedBase+SharedSize) {
		t.Error("InShared bounds")
	}
	if !InPrivate(PrivateBase) || InPrivate(SharedBase) {
		t.Error("InPrivate bounds")
	}
	if InShared(LockBase) || InPrivate(LockBase) {
		t.Error("lock region misclassified")
	}
}

func TestLoadProgramsCountMismatch(t *testing.T) {
	p := buildPF2(t, Proposed)
	if err := p.LoadPrograms([]isa.Program{isa.NewBuilder().Halt()}); err == nil {
		t.Fatal("program count mismatch accepted")
	}
}

func runScenario(t *testing.T, sol Solution, s workload.Scenario, params workload.Params) Result {
	t.Helper()
	p, err := Build(Config{
		Processors: PPCARm(),
		Solution:   sol,
		Lock:       LockChoice{Kind: LockUncachedTAS, Alternate: s.Alternate(), SpinDelay: 4},
		Verify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	progs, err := workload.Programs(s, params, sol, len(p.CPUs))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LoadPrograms(progs); err != nil {
		t.Fatal(err)
	}
	res := p.Run(20_000_000)
	if res.Err != nil {
		t.Fatalf("%v/%v: %v", s, sol, res.Err)
	}
	return res
}

func TestRunProducesStats(t *testing.T) {
	res := runScenario(t, Proposed, workload.WCS, workload.Params{Lines: 4, ExecTime: 1, Iterations: 4})
	if res.Cycles == 0 || res.Bus.Completed == 0 {
		t.Fatalf("empty stats: %+v", res.Bus)
	}
	if len(res.CPU) != 2 || len(res.Cache) != 2 || len(res.Snoop) != 2 {
		t.Fatal("per-core stats missing")
	}
	if !res.CPU[0].Halted || !res.CPU[1].Halted {
		t.Fatal("cores did not halt")
	}
	if res.Snoop[1].Hits == 0 {
		t.Fatal("ARM snoop logic never hit in WCS")
	}
	if res.WrapperConv[0] != 0 {
		// The PPC's MEI wrapper never converts (no S state to remove on
		// the MEI side when the peer has no coherence hardware).
		t.Fatalf("unexpected conversions %d", res.WrapperConv[0])
	}
	if !res.Coherent() {
		t.Fatalf("violations: %v", res.Violations)
	}
}

// TestDeterminism: identical configurations produce identical cycle counts
// (DESIGN.md invariant 7).
func TestDeterminism(t *testing.T) {
	params := workload.Params{Lines: 8, ExecTime: 2, Iterations: 4, Seed: 99}
	for _, s := range workload.Scenarios() {
		a := runScenario(t, Proposed, s, params)
		b := runScenario(t, Proposed, s, params)
		if a.Cycles != b.Cycles {
			t.Errorf("%v: cycles %d vs %d", s, a.Cycles, b.Cycles)
		}
		if a.Bus != b.Bus {
			t.Errorf("%v: bus stats differ", s)
		}
	}
}

// TestGoldenMemoryMatchesAfterRun: after any run, main memory merged with
// dirty cache lines must equal the golden model's view for every word the
// workload wrote.  (The checker already verifies loads; this verifies the
// final state.)
func TestFinalStateConsistency(t *testing.T) {
	params := workload.Params{Lines: 4, ExecTime: 2, Iterations: 3, WordsPerLine: 4}
	for _, sol := range Solutions() {
		p, err := Build(Config{
			Processors: PPCARm(),
			Solution:   sol,
			Lock:       LockChoice{Kind: LockUncachedTAS, Alternate: true, SpinDelay: 4},
			Verify:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		progs, err := workload.Programs(workload.WCS, params, sol, 2)
		if err != nil {
			t.Fatal(err)
		}
		p.LoadPrograms(progs)
		res := p.Run(20_000_000)
		if res.Err != nil {
			t.Fatalf("%v: %v", sol, res.Err)
		}
		expected := p.GoldenExpected()
		// System view of a word: the freshest copy (a dirty cached copy
		// wins over memory; coherent runs have at most one dirty copy).
		lookup := func(addr uint32) uint32 {
			for i := range p.CPUs {
				c := p.Controllers[i].Cache()
				if l := c.Lookup(addr); l != nil && l.State.Dirty() {
					return l.Data[c.WordIndex(addr)]
				}
			}
			return p.Memory.Peek(addr)
		}
		for _, addr := range params.Defaults().Footprint(workload.WCS) {
			want := expected[addr]
			if got := lookup(addr); got != want {
				t.Fatalf("%v: final word 0x%x = %#x, want %#x", sol, addr, got, want)
			}
		}
	}
}

// TestSingleOwnerInvariant: under the proposed solution with the PF2
// platform (effective MEI) a shared line is never valid in both caches at
// once.  Sampled at every engine cycle of a short run.
func TestSingleOwnerInvariant(t *testing.T) {
	p := buildPF2(t, Proposed)
	progs, err := workload.Programs(workload.WCS, workload.Params{Lines: 4, ExecTime: 1, Iterations: 3}, Proposed, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.LoadPrograms(progs)
	for i := 0; i < 2_000_000 && !p.Engine.Stopped(); i++ {
		p.Engine.Step()
		if i%7 != 0 {
			continue
		}
		resident := map[uint32]int{}
		for core := range p.CPUs {
			for _, base := range p.SharedLinesResident(core) {
				resident[base]++
				if resident[base] > 1 {
					t.Fatalf("line 0x%x valid in multiple caches at cycle %d", base, i)
				}
			}
		}
	}
}

// TestTAGCAMSuperset: the snoop logic's CAM always contains every shared
// line resident in the ARM's cache (false negatives would break
// coherence; false positives are allowed).
func TestTAGCAMSuperset(t *testing.T) {
	p := buildPF2(t, Proposed)
	progs, err := workload.Programs(workload.TCS, workload.Params{Lines: 6, ExecTime: 1, Iterations: 4}, Proposed, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.LoadPrograms(progs)
	sl := p.SnoopLogics[1]
	for i := 0; i < 4_000_000 && !p.Engine.Stopped(); i++ {
		p.Engine.Step()
		if i%11 != 0 {
			continue
		}
		for _, base := range p.SharedLinesResident(1) {
			if !sl.Holds(base) {
				t.Fatalf("cycle %d: resident line 0x%x missing from TAG CAM", i, base)
			}
		}
	}
}

// TestProposedBeatsBaselinesInBCS pins the headline result's direction.
func TestProposedBeatsBaselinesInBCS(t *testing.T) {
	params := workload.Params{Lines: 16, ExecTime: 1, Iterations: 6}
	dis := runScenario(t, CacheDisabled, workload.BCS, params)
	sw := runScenario(t, Software, workload.BCS, params)
	prop := runScenario(t, Proposed, workload.BCS, params)
	if !(prop.Cycles < sw.Cycles && sw.Cycles < dis.Cycles) {
		t.Fatalf("ordering violated: dis=%d sw=%d prop=%d", dis.Cycles, sw.Cycles, prop.Cycles)
	}
}

func TestScaledTimingSlowsRuns(t *testing.T) {
	params := workload.Params{Lines: 8, ExecTime: 1, Iterations: 3}
	base, err := Build(Config{Processors: PPCARm(), Solution: Software, Lock: LockChoice{Kind: LockUncachedTAS, Alternate: true}})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Build(Config{Processors: PPCARm(), Solution: Software, Timing: memory.ScaledTiming(96), Lock: LockChoice{Kind: LockUncachedTAS, Alternate: true}})
	if err != nil {
		t.Fatal(err)
	}
	progs, _ := workload.Programs(workload.WCS, params, Software, 2)
	base.LoadPrograms(progs)
	progs2, _ := workload.Programs(workload.WCS, params, Software, 2)
	slow.LoadPrograms(progs2)
	rb, rs := base.Run(20_000_000), slow.Run(20_000_000)
	if rb.Err != nil || rs.Err != nil {
		t.Fatalf("errs %v %v", rb.Err, rs.Err)
	}
	if rs.Cycles <= rb.Cycles {
		t.Fatalf("96-cycle penalty not slower: %d vs %d", rs.Cycles, rb.Cycles)
	}
}

func TestPF3PlatformRuns(t *testing.T) {
	p, err := Build(Config{
		Processors: PPCI486(),
		Solution:   Proposed,
		Lock:       LockChoice{Kind: LockUncachedTAS, Alternate: true, SpinDelay: 4},
		Verify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Integration.Class != core.PF3 || p.Integration.Effective != coherence.MEI {
		t.Fatalf("integration %+v", p.Integration)
	}
	progs, _ := workload.Programs(workload.WCS, workload.Params{Lines: 4, ExecTime: 1, Iterations: 4}, Proposed, 2)
	p.LoadPrograms(progs)
	res := p.Run(20_000_000)
	if res.Err != nil || !res.Coherent() {
		t.Fatalf("PF3 run: err=%v violations=%v", res.Err, res.Violations)
	}
	// Effective MEI: the Intel486's MESI cache must never hold S.
	for _, base := range p.SharedLinesResident(1) {
		if st := p.Controllers[1].Cache().StateOf(base); st == coherence.Shared {
			t.Fatalf("i486 line 0x%x in S under MEI reduction", base)
		}
	}
	// The i486 wrapper must have converted snooped reads.
	if res.WrapperConv[1] == 0 {
		t.Fatal("i486 wrapper never converted a read")
	}
}

// TestPF3FasterThanPF2: the paper predicts the Intel486 platform
// outperforms the ARM one under the proposed solution "due to the absence
// of an interrupt service routine".
func TestPF3FasterThanPF2(t *testing.T) {
	params := workload.Params{Lines: 8, ExecTime: 1, Iterations: 6}
	run := func(specs []ProcessorSpec) uint64 {
		p, err := Build(Config{
			Processors: specs,
			Solution:   Proposed,
			Lock:       LockChoice{Kind: LockUncachedTAS, Alternate: true, SpinDelay: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		progs, _ := workload.Programs(workload.WCS, params, Proposed, 2)
		p.LoadPrograms(progs)
		res := p.Run(20_000_000)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Cycles
	}
	pf2 := run(PPCARm())
	pf3 := run(PPCI486())
	if pf3 >= pf2 {
		t.Fatalf("PF3 (%d cycles) not faster than PF2 (%d cycles)", pf3, pf2)
	}
}

func TestPF1PlatformRuns(t *testing.T) {
	p, err := Build(Config{
		Processors: ARMPair(),
		Solution:   Proposed,
		Lock:       LockChoice{Kind: LockUncachedTAS, Alternate: true, SpinDelay: 4},
		Verify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Integration.Class != core.PF1 {
		t.Fatalf("class %v", p.Integration.Class)
	}
	for i := range p.CPUs {
		if p.SnoopLogics[i] == nil {
			t.Fatalf("core %d missing snoop logic on PF1", i)
		}
	}
	progs, _ := workload.Programs(workload.WCS, workload.Params{Lines: 4, ExecTime: 1, Iterations: 3}, Proposed, 2)
	p.LoadPrograms(progs)
	res := p.Run(20_000_000)
	if res.Err != nil || !res.Coherent() {
		t.Fatalf("PF1 run: err=%v violations=%v", res.Err, res.Violations)
	}
}

func TestSolutionAndLockKindStrings(t *testing.T) {
	if CacheDisabled.String() != "cache-disabled" || Software.String() != "software" || Proposed.String() != "proposed" {
		t.Error("solution strings")
	}
	if LockUncachedTAS.String() != "uncached-tas" || LockBakery.String() != "bakery" {
		t.Error("lock kind strings")
	}
}

// TestIntel486WriteThroughPlatform exercises the paper's SI-protocol
// variant: the Intel486 caches shared data in write-through lines, whose S
// state the wrapper removes by asserting INV on read snoop cycles as well
// (modelled by the read-to-write conversion).
func TestIntel486WriteThroughPlatform(t *testing.T) {
	specs := []ProcessorSpec{PowerPC755(), Intel486WT()}
	p, err := Build(Config{
		Processors: specs,
		Solution:   Proposed,
		Lock:       LockChoice{Kind: LockUncachedTAS, Alternate: true, SpinDelay: 4},
		Verify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	progs, err := workload.Programs(workload.WCS, workload.Params{Lines: 4, ExecTime: 2, Iterations: 4}, Proposed, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.LoadPrograms(progs)
	res := p.Run(20_000_000)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Coherent() {
		t.Fatalf("stale reads with WT shared lines: %v", res.Violations[0])
	}
	// WT writes are word writes on the bus.
	if res.Bus.WordWrites == 0 {
		t.Fatal("no write-through traffic observed")
	}
	// The i486's cache must never have held a dirty shared line.
	if res.Cache[1].EvictionWBs != 0 || res.Cache[1].SnoopFlushes != 0 {
		t.Fatalf("WT cache produced dirty-line traffic: %+v", res.Cache[1])
	}
}

// TestWriteThroughRequiresSState: MEI cores cannot use WT shared lines.
func TestWriteThroughRequiresSState(t *testing.T) {
	specs := PPCARm()
	specs[0].WriteThroughShared = true // PowerPC755 is MEI: no S state
	if _, err := Build(Config{Processors: specs, Solution: Proposed}); err == nil {
		t.Fatal("WT on an MEI processor accepted")
	}
}

// TestHomogeneousDragonPlatform runs the update-based protocol end-to-end.
func TestHomogeneousDragonPlatform(t *testing.T) {
	specs := []ProcessorSpec{
		Generic("D0", coherence.Dragon, 1),
		Generic("D1", coherence.Dragon, 1),
	}
	p, err := Build(Config{
		Processors: specs,
		Solution:   Proposed,
		Lock:       LockChoice{Kind: LockUncachedTAS, Alternate: true, SpinDelay: 4},
		Verify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	progs, err := workload.Programs(workload.WCS, workload.Params{Lines: 4, ExecTime: 2, Iterations: 4}, Proposed, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.LoadPrograms(progs)
	res := p.Run(20_000_000)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Coherent() {
		t.Fatalf("dragon stale reads: %v", res.Violations[0])
	}
	if res.Bus.WordUpdates == 0 {
		t.Fatal("no bus updates observed in a WCS dragon run")
	}
	// Update-based WCS sharing: both caches hold lines simultaneously, so
	// snoop invalidations should be absent on the data path.
	if res.Cache[0].SnoopInvalidations+res.Cache[1].SnoopInvalidations != 0 {
		t.Fatalf("invalidations in a homogeneous Dragon system: %+v %+v", res.Cache[0], res.Cache[1])
	}
}

// TestDragonVsMESITradeOff reproduces the classic update-vs-invalidate
// trade-off: Dragon wins on fine-grain word ping-pong (each write is one
// bus update and the peer keeps reading from its own cache), while MESI
// wins on bulk line rewrites (Dragon pays one bus update per word where
// MESI invalidates once and writes silently thereafter).
func TestDragonVsMESITradeOff(t *testing.T) {
	run := func(k coherence.Kind, params workload.Params) uint64 {
		specs := []ProcessorSpec{Generic("A", k, 1), Generic("B", k, 1)}
		p, err := Build(Config{
			Processors: specs,
			Solution:   Proposed,
			Lock:       LockChoice{Kind: LockUncachedTAS, Alternate: true, SpinDelay: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		progs, _ := workload.Programs(workload.WCS, params, Proposed, 2)
		p.LoadPrograms(progs)
		res := p.Run(20_000_000)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Cycles
	}
	pingPong := workload.Params{Lines: 1, ExecTime: 1, Iterations: 10, WordsPerLine: 1}
	if mesi, dragon := run(coherence.MESI, pingPong), run(coherence.Dragon, pingPong); dragon >= mesi {
		t.Errorf("ping-pong: Dragon (%d) not faster than MESI (%d)", dragon, mesi)
	}
	bulk := workload.Params{Lines: 8, ExecTime: 2, Iterations: 6, WordsPerLine: 8}
	if mesi, dragon := run(coherence.MESI, bulk), run(coherence.Dragon, bulk); mesi >= dragon {
		t.Errorf("bulk rewrite: MESI (%d) not faster than Dragon (%d)", mesi, dragon)
	}
}

// TestMultiLockPlatform: two independent locks pipeline two shared blocks.
func TestMultiLockPlatform(t *testing.T) {
	p, err := Build(Config{
		Processors: PPCARm(),
		Solution:   Proposed,
		Lock:       LockChoice{Kind: LockUncachedTAS, SpinDelay: 3, Count: 2},
		Verify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	blockA, blockB := workload.BlockBase(0), workload.BlockBase(1)
	prog := func(task int, lockID int, base uint32) isa.Program {
		b := isa.NewBuilder()
		for r := 0; r < 5; r++ {
			b.Lock(lockID)
			for w := 0; w < 4; w++ {
				addr := base + uint32(4*w)
				b.Read(addr)
				b.Write(addr, uint32(task+1)<<16|uint32(r)<<4|uint32(w))
			}
			b.Unlock(lockID)
		}
		return b.Halt()
	}
	if err := p.LoadPrograms([]isa.Program{prog(0, 0, blockA), prog(1, 1, blockB)}); err != nil {
		t.Fatal(err)
	}
	res := p.Run(10_000_000)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Coherent() {
		t.Fatalf("stale: %v", res.Violations[0])
	}
	if res.CPU[0].LockAcquires != 5 || res.CPU[1].LockAcquires != 5 {
		t.Fatalf("lock counts %d/%d", res.CPU[0].LockAcquires, res.CPU[1].LockAcquires)
	}
}

// TestHardwareRegisterCountRejected at the platform level.
func TestHardwareRegisterCountRejected(t *testing.T) {
	_, err := Build(Config{
		Processors: PPCARm(),
		Solution:   Proposed,
		Lock:       LockChoice{Kind: LockHardwareRegister, Count: 2},
	})
	if err == nil {
		t.Fatal("two hardware-register locks accepted")
	}
}

// TestVCDDumpStructure runs a platform with the waveform probe and checks
// the dump is a well-formed VCD showing bus activity.
func TestVCDDumpStructure(t *testing.T) {
	var sb strings.Builder
	p, err := Build(Config{
		Processors: PPCARm(),
		Solution:   Proposed,
		Lock:       LockChoice{Kind: LockUncachedTAS, Alternate: true, SpinDelay: 4},
		VCD:        &sb,
	})
	if err != nil {
		t.Fatal(err)
	}
	progs, _ := workload.Programs(workload.WCS, workload.Params{Lines: 2, ExecTime: 1, Iterations: 2}, Proposed, 2)
	p.LoadPrograms(progs)
	res := p.Run(10_000_000)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	out := sb.String()
	for _, want := range []string{
		"$timescale 10ns $end",
		"$scope module bus $end",
		"$scope module PowerPC755 $end",
		"$scope module ARM920T $end",
		"$enddefinitions $end",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("VCD missing %q", want)
		}
	}
	// Bus activity must be visible: busy toggles and at least one ARTRY.
	if !strings.Contains(out, "1!") {
		t.Fatal("bus never went busy in the dump")
	}
	if strings.Count(out, "#") < 20 {
		t.Fatal("suspiciously few timestamps")
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(b []byte) (int, error) {
	if len(b) <= w.n {
		w.n -= len(b)
		return len(b), nil
	}
	n := w.n
	w.n = 0
	return n, errDiskFull
}

// TestVCDWriteErrorSurfaces: a waveform target that fails part-way must
// not pass for a complete dump.  VCDErr reports the first error, whether it
// struck while sampling (the buffer filled) or in Run's final flush (the
// last byte).
func TestVCDWriteErrorSurfaces(t *testing.T) {
	run := func(w io.Writer) *Platform {
		t.Helper()
		p, err := Build(Config{
			Processors: PPCARm(),
			Solution:   Proposed,
			Lock:       LockChoice{Kind: LockUncachedTAS, Alternate: true, SpinDelay: 4},
			VCD:        w,
		})
		if err != nil {
			t.Fatal(err) // the header is still buffered
		}
		progs, _ := workload.Programs(workload.WCS, workload.Params{Lines: 8, ExecTime: 1, Iterations: 4}, Proposed, 2)
		if err := p.LoadPrograms(progs); err != nil {
			t.Fatal(err)
		}
		if res := p.Run(10_000_000); res.Err != nil {
			t.Fatal(res.Err)
		}
		return p
	}
	var whole strings.Builder
	if err := run(&whole).VCDErr(); err != nil {
		t.Fatalf("healthy dump: VCDErr() = %v", err)
	}
	size := whole.Len()
	if size < 3*4096 {
		t.Fatalf("dump of %d bytes is too small to fail mid-run", size)
	}
	for _, n := range []int{0, size / 2, size - 1} {
		if err := run(&failAfter{n: n}).VCDErr(); !errors.Is(err, errDiskFull) {
			t.Errorf("failing after %d of %d bytes: VCDErr() = %v, want the writer's error", n, size, err)
		}
	}
}

// TestPeripheralBusFromProgram: a program reads the timer and writes the
// console through the bridge; peripheral accesses are uncached words.
func TestPeripheralBusFromProgram(t *testing.T) {
	p, err := Build(Config{
		Processors: PPCARm(),
		Solution:   Proposed,
		Lock:       LockChoice{Kind: LockUncachedTAS},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := isa.NewBuilder()
	b.Write(TimerBase+4, 1) // enable the timer (TimerCtrl)
	b.Delay(100)
	b.Read(TimerBase) // TimerCount
	for _, ch := range "hi" {
		b.Write(ConsoleBase, uint32(ch))
	}
	progs := []isa.Program{b.Halt(), isa.NewBuilder().Halt()}
	if err := p.LoadPrograms(progs); err != nil {
		t.Fatal(err)
	}
	var timerVal uint32
	p.CPUs[0].SetHooks(cpu.Hooks{OnLoad: func(_ int, addr, val uint32, _ uint64) {
		if addr == TimerBase {
			timerVal = val
		}
	}})
	res := p.Run(1_000_000)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if timerVal == 0 {
		t.Fatal("timer did not count")
	}
	if p.Console.Output() != "hi" {
		t.Fatalf("console output %q", p.Console.Output())
	}
	if p.Periph.Accesses < 4 {
		t.Fatalf("bridge accesses %d", p.Periph.Accesses)
	}
	// Peripheral accesses must not allocate cache lines.
	if _, ok := p.Controllers[0].Cache().PeekWord(TimerBase); ok {
		t.Fatal("peripheral access cached")
	}
}

// TestDMACoherentWithProgram: a program stages data in its cache (dirty),
// kicks the DMA engine at a buffer copy, polls STATUS, and reads the
// destination — all coherently.
func TestDMACoherentWithProgram(t *testing.T) {
	p, err := Build(Config{
		Processors: PPCARm(),
		Solution:   Proposed,
		Lock:       LockChoice{Kind: LockUncachedTAS},
		DMA:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := workload.BlockBase(0)
	dst := workload.BlockBase(1)
	b := isa.NewBuilder()
	for w := uint32(0); w < 8; w++ {
		b.Write(src+4*w, 0x40+w) // dirty in the PPC cache
	}
	b.Write(DMABase+0x0, src) // RegSrc
	b.Write(DMABase+0x4, dst) // RegDst
	b.Write(DMABase+0x8, 32)  // RegLen: one line
	b.Write(DMABase+0xc, 1)   // RegCtrl: start
	b.WaitEq(DMABase+0x10, 2) // RegStatus == done
	for w := uint32(0); w < 8; w++ {
		b.Read(dst + 4*w)
	}
	progs := []isa.Program{b.Halt(), isa.NewBuilder().Halt()}
	if err := p.LoadPrograms(progs); err != nil {
		t.Fatal(err)
	}
	var got []uint32
	p.CPUs[0].SetHooks(cpu.Hooks{OnLoad: func(_ int, addr, val uint32, _ uint64) {
		if addr >= dst && addr < dst+32 {
			got = append(got, val)
		}
	}})
	res := p.Run(2_000_000)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(got) != 8 {
		t.Fatalf("%d destination reads", len(got))
	}
	for w, v := range got {
		if v != uint32(0x40+w) {
			t.Fatalf("dst word %d = %#x, want %#x (dirty source drained for the DMA read)", w, v, 0x40+w)
		}
	}
	if p.DMA.Transfers != 1 {
		t.Fatalf("transfers %d", p.DMA.Transfers)
	}
}

// TestRaceDetector flags shared accesses outside critical sections and
// stays quiet for disciplined programs.
func TestRaceDetector(t *testing.T) {
	build := func() *Platform {
		p, err := Build(Config{
			Processors: PPCARm(),
			Solution:   Proposed,
			Lock:       LockChoice{Kind: LockUncachedTAS},
			Verify:     true,
			RaceCheck:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	shared := workload.BlockBase(0)

	// Disciplined: all shared accesses under the lock.
	p := build()
	good := isa.NewBuilder().Lock(0).Write(shared, 1).Read(shared).Unlock(0).Halt()
	p.LoadPrograms([]isa.Program{good, isa.NewBuilder().Halt()})
	res := p.Run(1_000_000)
	if res.Err != nil || len(res.Races) != 0 {
		t.Fatalf("disciplined program flagged: err=%v races=%v", res.Err, res.Races)
	}

	// Racy: a shared write with no lock held.
	p = build()
	bad := isa.NewBuilder().Write(shared, 1).Lock(0).Read(shared).Unlock(0).Halt()
	p.LoadPrograms([]isa.Program{bad, isa.NewBuilder().Halt()})
	res = p.Run(1_000_000)
	if len(res.Races) != 1 {
		t.Fatalf("races %v, want exactly the unlocked write", res.Races)
	}
	if r := res.Races[0]; !r.Write || r.Core != 0 || r.Addr != shared {
		t.Fatalf("race record %+v", r)
	}
	if r := res.Races[0].String(); r == "" {
		t.Fatal("race renders empty")
	}
}

// TestWaitEqPollsUntilMatch: one core spins on an uncached mailbox the
// other eventually sets.
func TestWaitEqPollsUntilMatch(t *testing.T) {
	p, err := Build(Config{
		Processors: PPCARm(),
		Solution:   Proposed,
		Lock:       LockChoice{Kind: LockUncachedTAS},
	})
	if err != nil {
		t.Fatal(err)
	}
	mailbox := LockBase + 0xf0
	waiter := isa.NewBuilder().WaitEq(mailbox, 7).Write(workload.BlockBase(0), 1).Halt()
	setter := isa.NewBuilder().Delay(500).Write(mailbox, 7).Halt()
	if err := p.LoadPrograms([]isa.Program{waiter, setter}); err != nil {
		t.Fatal(err)
	}
	res := p.Run(1_000_000)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// The waiter's write must land after the setter's delay elapsed.
	if res.CPU[0].HaltCycle < 500 {
		t.Fatalf("waiter finished at %d, before the mailbox was set", res.CPU[0].HaltCycle)
	}
	if res.Bus.WordReads < 3 {
		t.Fatalf("only %d polls observed", res.Bus.WordReads)
	}
}

// TestPipelinedBusFasterAndCoherent: the AHB-style ablation must keep
// coherence while shortening runs.
func TestPipelinedBusFasterAndCoherent(t *testing.T) {
	run := func(pipelined bool) Result {
		p, err := Build(Config{
			Processors:   PPCARm(),
			Solution:     Proposed,
			Lock:         LockChoice{Kind: LockUncachedTAS, Alternate: true, SpinDelay: 4},
			Verify:       true,
			PipelinedBus: pipelined,
		})
		if err != nil {
			t.Fatal(err)
		}
		progs, _ := workload.Programs(workload.WCS, workload.Params{Lines: 8, ExecTime: 1, Iterations: 6}, Proposed, 2)
		p.LoadPrograms(progs)
		res := p.Run(20_000_000)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if !res.Coherent() {
			t.Fatalf("pipelined=%v stale: %v", pipelined, res.Violations[0])
		}
		return res
	}
	plain := run(false)
	piped := run(true)
	if piped.Cycles >= plain.Cycles {
		t.Fatalf("pipelined (%d) not faster than plain (%d)", piped.Cycles, plain.Cycles)
	}
	if piped.Bus.Overlapped == 0 {
		t.Fatal("no overlap recorded")
	}
}

// TestVendorPresets runs the paper's cited commercial protocol examples
// together: UltraSPARC/AMD64 (MOESI) with a Pentium-class MESI core.
func TestVendorPresets(t *testing.T) {
	for _, specs := range [][]ProcessorSpec{
		{UltraSPARC(), Pentium()},
		{AMD64(), Pentium()},
		{UltraSPARC(), AMD64()},
	} {
		p, err := Build(Config{
			Processors: specs,
			Solution:   Proposed,
			Lock:       LockChoice{Kind: LockUncachedTAS, Alternate: true, SpinDelay: 4},
			Verify:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		progs, _ := workload.Programs(workload.WCS, workload.Params{Lines: 4, ExecTime: 1, Iterations: 3}, Proposed, 2)
		p.LoadPrograms(progs)
		res := p.Run(20_000_000)
		if res.Err != nil || !res.Coherent() {
			t.Fatalf("%s+%s: err=%v violations=%v", specs[0].Model, specs[1].Model, res.Err, res.Violations)
		}
		// Homogeneous MOESI keeps cache-to-cache; the MESI mix must not.
		homo := specs[0].Protocol == specs[1].Protocol
		if homo && res.Bus.Supplied == 0 {
			t.Errorf("%s+%s: no cache-to-cache transfers in homogeneous MOESI", specs[0].Model, specs[1].Model)
		}
		if !homo && res.Bus.Supplied != 0 {
			t.Errorf("%s+%s: cache-to-cache in a heterogeneous mix", specs[0].Model, specs[1].Model)
		}
	}
}

// TestPetersonLockOnPlatform: the Peterson software lock is a valid PF2
// deadlock remedy (uncached plain loads/stores, like bakery).
func TestPetersonLockOnPlatform(t *testing.T) {
	p, err := Build(Config{
		Processors: PPCARm(),
		Solution:   Proposed,
		Lock:       LockChoice{Kind: LockPeterson, SpinDelay: 3},
		Verify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	progs, _ := workload.Programs(workload.BCS, workload.Params{Lines: 4, ExecTime: 1, Iterations: 4}, Proposed, 2)
	p.LoadPrograms(progs)
	res := p.Run(20_000_000)
	if res.Err != nil || !res.Coherent() {
		t.Fatalf("err=%v violations=%v", res.Err, res.Violations)
	}
	// Contended too.
	p2, err := Build(Config{
		Processors: PPCARm(),
		Solution:   Proposed,
		Lock:       LockChoice{Kind: LockPeterson, SpinDelay: 3},
		Verify:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	progs2, _ := workload.Programs(workload.WCS, workload.Params{Lines: 4, ExecTime: 1, Iterations: 4}, Proposed, 2)
	p2.LoadPrograms(progs2)
	res2 := p2.Run(20_000_000)
	if res2.Err != nil || !res2.Coherent() {
		t.Fatalf("contended: err=%v violations=%v", res2.Err, res2.Violations)
	}
	if res2.CPU[0].LockAcquires != 4 || res2.CPU[1].LockAcquires != 4 {
		t.Fatalf("acquires %d/%d", res2.CPU[0].LockAcquires, res2.CPU[1].LockAcquires)
	}
}

// TestKitchenSinkCompose drives every optional feature at once: pipelined
// bus, DMA engine, wrapper latency, write-through i486, multi-lock,
// race-checked golden model, VCD dump.  Features must compose.
func TestKitchenSinkCompose(t *testing.T) {
	var wave strings.Builder
	specs := []ProcessorSpec{PowerPC755(), Intel486WT(), ARM920T()}
	for i := range specs {
		specs[i].WrapperLatency = 1
	}
	p, err := Build(Config{
		Processors:   specs,
		Solution:     Proposed,
		Lock:         LockChoice{Kind: LockUncachedTAS, Alternate: true, SpinDelay: 4, Count: 2},
		Verify:       true,
		RaceCheck:    true,
		PipelinedBus: true,
		DMA:          true,
		VCD:          &wave,
		TraceCap:     64,
	})
	if err != nil {
		t.Fatal(err)
	}
	progs, err := workload.Programs(workload.WCS, workload.Params{Lines: 4, ExecTime: 2, Iterations: 3}, Proposed, 3)
	if err != nil {
		t.Fatal(err)
	}
	p.LoadPrograms(progs)
	res := p.Run(30_000_000)
	if res.Err != nil {
		t.Fatalf("err=%v reason=%s", res.Err, res.StopReason)
	}
	if !res.Coherent() {
		t.Fatalf("stale: %v", res.Violations[0])
	}
	if len(res.Races) != 0 {
		t.Fatalf("races: %v", res.Races)
	}
	if wave.Len() == 0 || p.Log.Len() == 0 {
		t.Fatal("instrumentation produced nothing")
	}
}

// TestSnoopLogicTraceStamps: the snoop logic's trace lines carry the engine
// cycle they happen at, like the bus's, so each "snoop hit" sits at the cycle
// of the ARTRY it causes for that line, under both schedulers.
func TestSnoopLogicTraceStamps(t *testing.T) {
	for _, sched := range []string{SchedulerEvent, SchedulerTick} {
		p, err := Build(Config{
			Processors: PPCARm(),
			Solution:   Proposed,
			Lock:       LockChoice{Kind: LockUncachedTAS, Alternate: true, SpinDelay: 4},
			TraceCap:   100_000,
			Scheduler:  sched,
		})
		if err != nil {
			t.Fatal(err)
		}
		progs, err := workload.Programs(workload.WCS, workload.Params{Lines: 8, ExecTime: 1}, Proposed, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.LoadPrograms(progs); err != nil {
			t.Fatal(err)
		}
		if res := p.Run(10_000_000); res.Err != nil {
			t.Fatalf("%s: %v (%s)", sched, res.Err, res.StopReason)
		}
		events, dropped := p.Log.Events()
		if dropped != 0 {
			t.Fatalf("%s: trace dropped %d events", sched, dropped)
		}
		hits := 0
		for i, e := range events {
			if !strings.HasSuffix(e.Unit, "-snoop") {
				continue
			}
			if e.Cycle == 0 {
				t.Fatalf("%s: snoop-logic line stamped cycle 0: %v", sched, e)
			}
			var addr uint32
			if _, err := fmt.Sscanf(e.Msg, "snoop hit 0x%x", &addr); err != nil {
				continue
			}
			hits++
			line := fmt.Sprintf(" 0x%08x (retry ", addr)
			j := i + 1
			for j < len(events) && !(events[j].Unit == "bus" && strings.HasPrefix(events[j].Msg, "ARTRY ") && strings.Contains(events[j].Msg, line)) {
				j++
			}
			if j == len(events) {
				t.Fatalf("%s: %v is followed by no ARTRY for its line", sched, e)
			}
			if events[j].Cycle != e.Cycle {
				t.Fatalf("%s: %v stamped apart from the ARTRY it causes: %v", sched, e, events[j])
			}
		}
		if hits == 0 {
			t.Fatalf("%s: no snoop hit traced", sched)
		}
	}
}

// TestSoakLongMixedRun is a longer randomized multi-feature soak (skipped
// with -short).
func TestSoakLongMixedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for seed := uint64(1); seed <= 3; seed++ {
		p, err := Build(Config{
			Processors:   []ProcessorSpec{PowerPC755(), Intel486(), ARM920T()},
			Solution:     Proposed,
			Lock:         LockChoice{Kind: LockBakery, Alternate: true, SpinDelay: 3},
			Verify:       true,
			PipelinedBus: seed%2 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		progs, err := workload.Programs(workload.TCS, workload.Params{
			Lines: 16, ExecTime: 2, Iterations: 20, Seed: seed,
		}, Proposed, 3)
		if err != nil {
			t.Fatal(err)
		}
		p.LoadPrograms(progs)
		res := p.Run(100_000_000)
		if res.Err != nil {
			t.Fatalf("seed %d: %v", seed, res.Err)
		}
		if !res.Coherent() {
			t.Fatalf("seed %d: %v", seed, res.Violations[0])
		}
	}
}

// TestGoldenExpectedListsZeroStores: a shared word whose last store was 0
// stays in GoldenExpected with value 0, although memory holds no such word.
func TestGoldenExpectedListsZeroStores(t *testing.T) {
	p := buildPF2(t, Proposed)
	a, b := SharedBase, SharedBase+0x1000
	p.LoadPrograms([]isa.Program{
		isa.NewBuilder().Lock(0).Write(a, 7).Write(a, 0).Write(b, 3).Unlock(0).Halt(),
		isa.NewBuilder().Halt(),
	})
	if res := p.Run(1_000_000); res.Err != nil || !res.Coherent() {
		t.Fatalf("run: %v, violations %v", res.Err, res.Violations)
	}
	got := p.GoldenExpected()
	if len(got) != 2 || got[b] != 3 {
		t.Fatalf("GoldenExpected = %v, want {%#x: 0, %#x: 3}", got, a, b)
	}
	if v, ok := got[a]; !ok || v != 0 {
		t.Fatalf("zero-stored word %#x: %d, listed %v", a, v, ok)
	}
}
