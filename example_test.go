package hetcc_test

import (
	"fmt"

	"hetcc"
	"hetcc/internal/isa"
	"hetcc/internal/platform"
	"hetcc/internal/stats"
	"hetcc/internal/workload"
)

// ExampleRun simulates the paper's best-case scenario on the default
// PowerPC755+ARM920T platform under all three strategies.  The simulator
// is deterministic, so the cycle counts are reproducible.
func ExampleRun() {
	for _, sol := range []hetcc.Solution{hetcc.CacheDisabled, hetcc.Software, hetcc.Proposed} {
		res, err := hetcc.Run(hetcc.Config{
			Scenario: hetcc.BCS,
			Solution: sol,
			Verify:   true,
			Params:   hetcc.Params{Lines: 8, ExecTime: 1, Iterations: 4},
		})
		if err != nil || res.Err != nil {
			fmt.Println("error:", err, res.Err)
			return
		}
		fmt.Printf("%-14v %6d cycles, coherent=%v\n", sol, res.Cycles, res.Coherent())
	}
	// Output:
	// cache-disabled  11497 cycles, coherent=true
	// software         6953 cycles, coherent=true
	// proposed         4553 cycles, coherent=true
}

// ExampleTable2 replays the paper's Table 2 staleness sequence: without the
// wrappers the MESI processor reads a stale Shared line; with them the
// effective protocol is MEI and the read is coherent.
func ExampleTable2() {
	broken, fixed, err := hetcc.Table2()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("without wrappers: stale read = %v\n", broken.StaleRead)
	fmt.Printf("with wrappers:    stale read = %v\n", fixed.StaleRead)
	// Output:
	// without wrappers: stale read = true
	// with wrappers:    stale read = false
}

// ExampleBuild shows platform introspection: the integration plan computed
// for the PF3 case study.
func ExampleBuild() {
	p, err := hetcc.Build(hetcc.Config{
		Scenario:   hetcc.WCS,
		Solution:   hetcc.Proposed,
		Processors: platform.PPCI486(),
		Params:     hetcc.Params{Lines: 1, Iterations: 1},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("class:", p.Integration.Class)
	fmt.Println("effective:", p.Integration.Effective)
	fmt.Println("i486 wrapper:", p.Integration.Policies[1])
	// Output:
	// class: PF3
	// effective: MEI
	// i486 wrapper: {rd→wr:true shared:force-deassert c2c:false}
}

// Geometry shared by the SoC examples below: 8-word, 32-byte lines.
const (
	lineBytes    = 32
	wordsPerLine = 8
)

// Example_armdeadlock demonstrates the paper's hardware-deadlock problem
// (Figure 4) on PF2 (PowerPC755 + ARM920T) and its remedies.  With a
// cacheable lock variable the ARM920T, whose snooping happens in an
// interrupt service routine, can stall on a lock check the PowerPC keeps
// retrying past, while the PowerPC's own access waits on the ARM's ISR; the
// bus detects the retry livelock.  Both of the paper's remedies work: keep
// lock variables uncached (a software lock such as Lamport's bakery also
// qualifies), or use the 1-bit hardware lock register, which gives the
// system only one lock.
func Example_armdeadlock() {
	run := func(kind platform.LockKind) (hetcc.Result, error) {
		lk := platform.LockChoice{Kind: kind, Alternate: false, SpinDelay: 4}
		return hetcc.Run(hetcc.Config{
			Scenario: hetcc.WCS,
			Solution: hetcc.Proposed,
			Lock:     &lk,
			Verify:   true,
			Params:   hetcc.Params{Lines: 4, ExecTime: 1, Iterations: 6},
		})
	}
	res, err := run(platform.LockCachedTAS)
	if err != nil || !res.Deadlocked() {
		fmt.Printf("expected a deadlock, got err=%v/%v after %d cycles\n", err, res.Err, res.Cycles)
		return
	}
	fmt.Printf("cached lock: HARDWARE DEADLOCK after %d cycles (%d bus retries)\n", res.Cycles, res.Bus.Aborted)

	remedies := []struct {
		kind platform.LockKind
		desc string
	}{
		{platform.LockUncachedTAS, "uncached test-and-set lock"},
		{platform.LockBakery, "Lamport bakery lock, uncached"},
		{platform.LockPeterson, "Peterson two-task lock, uncached"},
		{platform.LockHardwareRegister, "1-bit hardware lock register"},
	}
	for _, r := range remedies {
		res, err := run(r.kind)
		if err != nil || res.Err != nil {
			fmt.Println("error:", err, res.Err)
			return
		}
		fmt.Printf("%s: %d cycles, coherent=%v\n", r.desc, res.Cycles, res.Coherent())
	}
	// Output:
	// cached lock: HARDWARE DEADLOCK after 2643 cycles (518 bus retries)
	// uncached test-and-set lock: 5735 cycles, coherent=true
	// Lamport bakery lock, uncached: 9059 cycles, coherent=true
	// Peterson two-task lock, uncached: 9137 cycles, coherent=true
	// 1-bit hardware lock register: 8243 cycles, coherent=true
}

// Media pipeline of Example_socmedia: frames of frameLines lines through a
// ring of ringBuffers shared buffers.
const (
	frames      = 12
	frameLines  = 32 // 32 lines x 32 B = 1 KB per frame
	ringBuffers = 4
)

func frameLineAddr(frame, line int) uint32 {
	return workload.BlockBase(frame%ringBuffers) + uint32(line*lineBytes)
}

// mediaProducer decodes frames: under the lock it writes every word of the
// frame's buffer, then (in the software strategy) drains it.
func mediaProducer(sol hetcc.Solution) isa.Program {
	b := isa.NewBuilder()
	for f := 0; f < frames; f++ {
		b.Delay(40) // decode computation before publishing
		b.Lock(0)
		for l := 0; l < frameLines; l++ {
			base := frameLineAddr(f, l)
			for w := 0; w < wordsPerLine; w++ {
				b.Write(base+uint32(4*w), uint32(f<<16|l<<8|w+1))
			}
		}
		if sol == hetcc.Software {
			for l := 0; l < frameLines; l++ {
				b.Clean(frameLineAddr(f, l))
			}
		}
		b.Unlock(0)
	}
	return b.Halt()
}

// netConsumer checksums each frame under the lock (reads every word), then
// hands the buffer back.
func netConsumer(sol hetcc.Solution) isa.Program {
	b := isa.NewBuilder()
	for f := 0; f < frames; f++ {
		b.Lock(0)
		for l := 0; l < frameLines; l++ {
			base := frameLineAddr(f, l)
			for w := 0; w < wordsPerLine; w++ {
				b.Read(base + uint32(4*w))
			}
		}
		if sol == hetcc.Software {
			// The consumer's copies are clean, but it must still
			// invalidate them or the next frame in this ring slot would
			// hit stale data.
			for l := 0; l < frameLines; l++ {
				b.Inval(frameLineAddr(f, l))
			}
		}
		b.Unlock(0)
		b.Delay(40) // protocol/checksum work outside the critical section
	}
	return b.Halt()
}

// Example_socmedia reproduces the paper's motivating SoC workload (Section
// 1): a media processor (the PowerPC755) decodes 1 KB frames into a shared
// ring while a second processor (the ARM920T) runs the network stack that
// checksums them, alternating on the uncached lock.  The proposed wrappers
// need no drain/invalidate code and give the fastest pipeline.
func Example_socmedia() {
	solutions := []hetcc.Solution{hetcc.CacheDisabled, hetcc.Software, hetcc.Proposed}
	cycles := map[hetcc.Solution]uint64{}
	for _, sol := range solutions {
		lk := platform.LockChoice{Kind: platform.LockUncachedTAS, Alternate: true, SpinDelay: 4}
		p, err := hetcc.Build(hetcc.Config{
			Scenario: hetcc.WCS, // placeholder; programs are replaced below
			Solution: sol,
			Lock:     &lk,
			Verify:   true,
		})
		if err == nil {
			err = p.LoadPrograms([]isa.Program{mediaProducer(sol), netConsumer(sol)})
		}
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		res := p.Run(50_000_000)
		if res.Err != nil || !res.Coherent() {
			fmt.Printf("%v: err=%v, violations=%v\n", sol, res.Err, res.Violations)
			return
		}
		cycles[sol] = res.Cycles
	}
	t := stats.NewTable("Pipeline completion time", "strategy", "cycles", "ratio vs disabled", "speedup vs software %")
	for _, sol := range solutions {
		t.AddRow(sol, cycles[sol],
			stats.Ratio(cycles[sol], cycles[hetcc.CacheDisabled]),
			fmt.Sprintf("%+.2f", stats.SpeedupPct(cycles[sol], cycles[hetcc.Software])))
	}
	fmt.Print(t.String())
	// Output:
	// Pipeline completion time
	//   strategy        cycles  ratio vs disabled  speedup vs software %
	//   --------------  ------  -----------------  ---------------------
	//   cache-disabled  195923  1.0000             -100.92
	//   software        97515   0.4977             +0.00
	//   proposed        91311   0.4661             +6.36
}

// Packet pipeline of Example_netio.  Queue 0 (raw packets) lives in blocks
// 0-1 under lock 0; queue 1 (validated packets) lives in blocks 2-3 under
// lock 1, so the application drains cooked packets while the I/O processor
// fills raw buffers.
const (
	packets     = 10
	packetLines = 8 // 256 B packets
)

func rawAddr(pkt, line int) uint32 {
	return workload.BlockBase(pkt%2) + uint32(line*lineBytes)
}

func cookedAddr(pkt, line int) uint32 {
	return workload.BlockBase(2+pkt%2) + uint32(line*lineBytes)
}

// ioProcessor (ARM920T) receives packets: writes each raw packet, then
// waits a line-rate gap.
func ioProcessor() isa.Program {
	b := isa.NewBuilder()
	for p := 0; p < packets; p++ {
		b.Lock(0) // raw-queue lock
		for l := 0; l < packetLines; l++ {
			base := rawAddr(p, l)
			for w := 0; w < wordsPerLine; w++ {
				b.Write(base+uint32(4*w), uint32(0x10000000|p<<16|l<<8|w+1))
			}
		}
		b.Unlock(0)
		b.Delay(60) // inter-arrival gap at line rate
	}
	return b.Halt()
}

// protocolStack (Intel486) validates each raw packet and emits a cooked one.
func protocolStack() isa.Program {
	b := isa.NewBuilder()
	for p := 0; p < packets; p++ {
		b.Lock(0) // consume from the raw queue
		for l := 0; l < packetLines; l++ {
			raw := rawAddr(p, l)
			for w := 0; w < wordsPerLine; w++ {
				b.Read(raw + uint32(4*w))
			}
		}
		b.Unlock(0)
		b.Lock(1) // publish to the cooked queue
		for l := 0; l < packetLines; l++ {
			cooked := cookedAddr(p, l)
			for w := 0; w < wordsPerLine; w++ {
				b.Write(cooked+uint32(4*w), uint32(0x20000000|p<<16|l<<8|w+1))
			}
		}
		b.Unlock(1)
		b.Delay(20) // checksum / header rewrite
	}
	return b.Halt()
}

// packetApp (PowerPC755) consumes the cooked packets.
func packetApp() isa.Program {
	b := isa.NewBuilder()
	for p := 0; p < packets; p++ {
		b.Lock(1) // cooked-queue lock
		for l := 0; l < packetLines; l++ {
			base := cookedAddr(p, l)
			for w := 0; w < wordsPerLine; w++ {
				b.Read(base + uint32(4*w))
			}
		}
		b.Unlock(1)
		b.Delay(30) // application processing
	}
	return b.Halt()
}

// Example_netio explores the paper's stated future work (Section 5): a main
// processor tightly integrated with specialised I/O processors.  Packets
// flow from an ARM920T network I/O processor (no coherence hardware)
// through an Intel486 (MESI) protocol stack to a PowerPC755 (MEI)
// application over two shared queues, kept coherent by the wrappers plus
// the ARM-side snoop logic and checked against the golden model.
func Example_netio() {
	specs := []platform.ProcessorSpec{platform.PowerPC755(), platform.Intel486(), platform.ARM920T()}
	lk := platform.LockChoice{Kind: platform.LockUncachedTAS, SpinDelay: 4, Count: 2}
	p, err := hetcc.Build(hetcc.Config{
		Scenario:   hetcc.WCS, // placeholder; programs replaced below
		Solution:   hetcc.Proposed,
		Processors: specs,
		Lock:       &lk,
		Verify:     true,
	})
	if err == nil {
		err = p.LoadPrograms([]isa.Program{packetApp(), protocolStack(), ioProcessor()})
	}
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("platform class %v, effective protocol %v\n", p.Integration.Class, p.Integration.Effective)
	res := p.Run(50_000_000)
	if res.Err != nil {
		fmt.Println("error:", res.Err)
		return
	}
	t := stats.NewTable("Per-core activity", "core", "role", "instr", "fills", "snoopFlushes", "fiq", "isr")
	roles := []string{"application", "protocol stack", "network I/O"}
	for i := range p.CPUs {
		t.AddRow(p.CPUs[i].Name(), roles[i], res.CPU[i].Instructions,
			res.Cache[i].ReadMisses+res.Cache[i].WriteMisses,
			res.Cache[i].SnoopFlushes, res.CPU[i].FIQsRaised, res.CPU[i].ISRRuns)
	}
	fmt.Print(t.String())
	fmt.Printf("%d packets in %d cycles; ARM snoop logic hit %d times; coherent=%v\n",
		packets, res.Cycles, res.Snoop[2].Hits, res.Coherent())
	// Output:
	// platform class PF2, effective protocol MEI
	// Per-core activity
	//   core        role            instr  fills  snoopFlushes  fiq  isr
	//   ----------  --------------  -----  -----  ------------  ---  ---
	//   PowerPC755  application     671    48     0             0    0
	//   Intel486    protocol stack  1331   112    32            0    0
	//   ARM920T     network I/O     671    48     0             48   48
	// 10 packets in 22201 cycles; ARM snoop logic hit 48 times; coherent=true
}

// Example_dspdma moves a media buffer with the coherent DMA engine.  The
// PowerPC755 "decodes" a buffer (it sits dirty in its cache), programs the
// DMA to copy it to the DSP work area and signals the ARM920T, which stands
// in for the DSP, filters it and writes results the PowerPC reads back.  No
// explicit cache maintenance appears anywhere: the DMA's transactions are
// snooped like any processor's, so dirty source lines are drained for its
// read and cached destination copies are invalidated by its write.
func Example_dspdma() {
	const (
		bufLines = 16 // 512-byte media buffer
		words    = bufLines * lineBytes / 4
	)
	var (
		decoded = workload.BlockBase(0) // written by the CPU (cached, dirty)
		workBuf = workload.BlockBase(1) // DMA copies here for the DSP
		results = workload.BlockBase(2) // DSP output
		flagVar = platform.LockBase + 0xf0
	)
	cpu := isa.NewBuilder()
	for w := uint32(0); w < words; w++ {
		cpu.Write(decoded+4*w, 0xD000_0000|w)
	}
	cpu.Write(platform.DMABase+0x0, decoded) // source
	cpu.Write(platform.DMABase+0x4, workBuf) // destination
	cpu.Write(platform.DMABase+0x8, bufLines*lineBytes)
	cpu.Write(platform.DMABase+0xc, 1)   // control: start
	cpu.WaitEq(platform.DMABase+0x10, 2) // status: done
	cpu.Write(flagVar, 1)                // uncached mailbox: buffer ready
	cpu.WaitEq(flagVar, 2)               // wait for the DSP's results
	for w := uint32(0); w < words; w++ {
		cpu.Read(results + 4*w)
	}
	dsp := isa.NewBuilder()
	dsp.WaitEq(flagVar, 1)
	for w := uint32(0); w < words; w++ {
		dsp.Read(workBuf + 4*w)
		dsp.Write(results+4*w, 0xE000_0000|w) // "filtered" output
	}
	dsp.Write(flagVar, 2)

	p, err := platform.Build(platform.Config{
		Processors: platform.PPCARm(),
		Solution:   platform.Proposed,
		Lock:       platform.LockChoice{Kind: platform.LockUncachedTAS},
		DMA:        true,
	})
	if err == nil {
		err = p.LoadPrograms([]isa.Program{cpu.Halt(), dsp.Halt()})
	}
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res := p.Run(50_000_000)
	if res.Err != nil {
		fmt.Println("error:", res.Err)
		return
	}
	// The DSP's work buffer must hold the CPU's decoded data, which never
	// reached memory before the DMA read drained it.
	for w := uint32(0); w < words; w++ {
		if got := p.Memory.Peek(workBuf + 4*w); got != 0xD000_0000|w {
			fmt.Printf("work buffer word %d corrupt: %#x\n", w, got)
			return
		}
	}
	fmt.Printf("pipeline finished in %d cycles\n", res.Cycles)
	fmt.Printf("DMA: %d lines copied, %d transfer(s)\n", p.DMA.LinesCopied, p.DMA.Transfers)
	fmt.Printf("PowerPC snoop drains for the DMA read: %d\n", res.Cache[0].SnoopFlushes)
	fmt.Printf("ARM snoop-logic hits (work-area hand-off): %d\n", res.Snoop[1].Hits)
	// Output:
	// pipeline finished in 8699 cycles
	// DMA: 16 lines copied, 1 transfer(s)
	// PowerPC snoop drains for the DMA read: 16
	// ARM snoop-logic hits (work-area hand-off): 16
}
