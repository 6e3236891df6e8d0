package dma

import (
	"testing"

	"hetcc/internal/bus"
	"hetcc/internal/cache"
	"hetcc/internal/coherence"
	"hetcc/internal/memory"
)

const (
	dmaBase uint32 = 0x5000_0000
	srcBase uint32 = 0x1000
	dstBase uint32 = 0x2000
)

type bench struct {
	t   *testing.T
	bus *bus.Bus
	mem *memory.Memory
	eng *Engine
	ctl *cache.Controller
	now uint64
}

func newBench(t *testing.T) *bench {
	t.Helper()
	mem := memory.New()
	b := bus.New(bus.Config{Timing: memory.DefaultTiming()}, mem)
	arr, err := cache.New(cache.Config{SizeBytes: 1024, Ways: 2, LineBytes: 32}, coherence.New(coherence.MESI))
	if err != nil {
		t.Fatal(err)
	}
	ctl := cache.NewController("cpu", arr, b, nil, true)
	eng := New(dmaBase, 32, b)
	b.AddDevice(eng)
	return &bench{t: t, bus: b, mem: mem, eng: eng, ctl: ctl}
}

// step advances bus + engine one bus cycle.
func (bn *bench) step() {
	bn.bus.Tick(bn.now)
	bn.eng.Tick(bn.now)
	bn.now++
}

func (bn *bench) run(pred func() bool) {
	bn.t.Helper()
	for i := 0; i < 100000; i++ {
		if pred() {
			return
		}
		bn.step()
	}
	bn.t.Fatal("condition never true")
}

// poke writes a register through the bus.
func (bn *bench) writeReg(off, val uint32) {
	done := false
	bn.bus.Submit(&bus.Transaction{Master: bn.ctl.MasterID(), Kind: bus.WriteWord, Addr: dmaBase + off, Val: val}, func(bus.Result) { done = true })
	bn.run(func() bool { return done })
}

func (bn *bench) readReg(off uint32) uint32 {
	var out uint32
	done := false
	bn.bus.Submit(&bus.Transaction{Master: bn.ctl.MasterID(), Kind: bus.ReadWord, Addr: dmaBase + off}, func(r bus.Result) { out = r.Val; done = true })
	bn.run(func() bool { return done })
	return out
}

func (bn *bench) program(src, dst, length uint32) {
	bn.writeReg(RegSrc, src)
	bn.writeReg(RegDst, dst)
	bn.writeReg(RegLen, length)
	bn.writeReg(RegCtrl, 1)
}

func (bn *bench) waitDone() {
	bn.run(func() bool { return bn.readReg(RegStatus)&StatusDone != 0 })
}

func TestDMACopiesMemory(t *testing.T) {
	bn := newBench(t)
	for i := uint32(0); i < 16; i++ { // two lines
		bn.mem.Poke(srcBase+4*i, 100+i)
	}
	bn.program(srcBase, dstBase, 64)
	bn.waitDone()
	for i := uint32(0); i < 16; i++ {
		if got := bn.mem.Peek(dstBase + 4*i); got != 100+i {
			t.Fatalf("dst word %d = %d, want %d", i, got, 100+i)
		}
	}
	if bn.eng.LinesCopied != 2 || bn.eng.Transfers != 1 {
		t.Fatalf("counters %d/%d", bn.eng.LinesCopied, bn.eng.Transfers)
	}
}

func TestDMAReadsDirtyCachedSource(t *testing.T) {
	bn := newBench(t)
	// The CPU holds the source line dirty.
	done := false
	bn.ctl.Access(true, srcBase, 0xbeef, func(uint32) { done = true })
	bn.run(func() bool { return done })
	// DMA copy must see the cached value (owner drains on snoop).
	bn.program(srcBase, dstBase, 32)
	bn.waitDone()
	if got := bn.mem.Peek(dstBase); got != 0xbeef {
		t.Fatalf("dst = %#x, want cached 0xbeef", got)
	}
}

func TestDMAWriteInvalidatesCachedDestination(t *testing.T) {
	bn := newBench(t)
	// The CPU caches the destination line (clean).
	done := false
	bn.ctl.Access(false, dstBase, 0, func(uint32) { done = true })
	bn.run(func() bool { return done })
	bn.mem.Poke(srcBase, 7)
	bn.program(srcBase, dstBase, 32)
	bn.waitDone()
	if st := bn.ctl.Cache().StateOf(dstBase); st != coherence.Invalid {
		t.Fatalf("CPU copy of destination still %v after DMA write", st)
	}
	// A fresh CPU read sees the DMA data.
	var got uint32
	done = false
	bn.ctl.Access(false, dstBase, 0, func(v uint32) { got = v; done = true })
	bn.run(func() bool { return done })
	if got != 7 {
		t.Fatalf("CPU reread %d, want 7", got)
	}
}

func TestDMAWriteSupersedesDirtyDestination(t *testing.T) {
	bn := newBench(t)
	done := false
	bn.ctl.Access(true, dstBase, 0xdead, func(uint32) { done = true })
	bn.run(func() bool { return done })
	bn.mem.Poke(srcBase, 11)
	bn.program(srcBase, dstBase, 32)
	bn.waitDone()
	if got := bn.mem.Peek(dstBase); got != 11 {
		t.Fatalf("dst = %#x, want DMA's 11 to supersede the drained line", got)
	}
	if st := bn.ctl.Cache().StateOf(dstBase); st != coherence.Invalid {
		t.Fatalf("dirty destination copy survived: %v", st)
	}
}

func TestDMAProgrammingErrors(t *testing.T) {
	bn := newBench(t)
	cases := []struct{ src, dst, length uint32 }{
		{srcBase + 4, dstBase, 32}, // unaligned src
		{srcBase, dstBase + 8, 32}, // unaligned dst
		{srcBase, dstBase, 0},      // zero length
		{srcBase, dstBase, 20},     // not a line multiple
	}
	for i, c := range cases {
		bn.program(c.src, c.dst, c.length)
		if st := bn.readReg(RegStatus); st&StatusError == 0 {
			t.Errorf("case %d: status %#x, want error", i, st)
		}
	}
}

func TestDMARegistersLockedWhileBusy(t *testing.T) {
	bn := newBench(t)
	// Long transfer so we can poke mid-flight.
	for i := uint32(0); i < 256; i++ {
		bn.mem.Poke(srcBase+4*i, i)
	}
	bn.program(srcBase, dstBase, 1024)
	if bn.readReg(RegStatus)&StatusBusy == 0 {
		t.Fatal("not busy")
	}
	bn.writeReg(RegSrc, 0xffff0000) // must be ignored
	if got := bn.readReg(RegSrc); got != srcBase {
		t.Fatalf("src register changed mid-transfer: %#x", got)
	}
	bn.waitDone()
}

func TestDMAReadback(t *testing.T) {
	bn := newBench(t)
	bn.writeReg(RegSrc, 0x1000)
	bn.writeReg(RegDst, 0x2000)
	bn.writeReg(RegLen, 96)
	if bn.readReg(RegSrc) != 0x1000 || bn.readReg(RegDst) != 0x2000 || bn.readReg(RegLen) != 96 {
		t.Fatal("register readback")
	}
}
