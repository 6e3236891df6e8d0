package bus

import (
	"testing"

	"hetcc/internal/memory"
)

// Micro-benchmarks for the zero-garbage fast path.  Run with
//
//	go test -bench BenchmarkHotLoop -benchmem ./internal/bus
//
// and read allocs/op as the headline number: every benchmark here should
// report 0 allocs/op except the deliberately unpooled fill baseline.

var benchSink []uint32

func benchRoundTrip(b *testing.B, bs *Bus, txn *Transaction) {
	b.Helper()
	b.ReportAllocs()
	var cycle uint64
	// Warm the ring, fan-out and fill pool outside the timed region.
	bs.Submit(txn, nil)
	for !bs.Idle() {
		bs.Tick(cycle)
		cycle++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.Submit(txn, nil)
		for !bs.Idle() {
			bs.Tick(cycle)
			cycle++
		}
	}
}

// BenchmarkHotLoopBusTick: one master, line fill from memory, no snoopers.
func BenchmarkHotLoopBusTick(b *testing.B) {
	bs := New(Config{Timing: memory.DefaultTiming()}, memory.New())
	m := bs.AddMaster("m")
	benchRoundTrip(b, bs, &Transaction{Master: m, Kind: ReadLine, Addr: 0x400, Words: 8})
}

// BenchmarkHotLoopSnoopFanout: same fill, broadcast to three snoopers via
// the precomputed per-master fan-out.
func BenchmarkHotLoopSnoopFanout(b *testing.B) {
	bs := New(Config{Timing: memory.DefaultTiming()}, memory.New())
	m := bs.AddMaster("m")
	for i := 0; i < 3; i++ {
		bs.AddSnooper(bs.AddMaster("snooped"), nopSnooper{})
	}
	benchRoundTrip(b, bs, &Transaction{Master: m, Kind: ReadLineOwn, Addr: 0x2000, Words: 8})
}

// BenchmarkHotLoopFillPooled: fill-buffer recycling through the bus linePool.
func BenchmarkHotLoopFillPooled(b *testing.B) {
	b.ReportAllocs()
	var p linePool
	p.put(make([]uint32, 8))
	for i := 0; i < b.N; i++ {
		buf := p.get(8)
		buf[0] = uint32(i)
		benchSink = buf
		p.put(buf)
	}
}

// BenchmarkHotLoopFillUnpooled: the pre-pool baseline — one fresh slice per
// line fill, i.e. one heap allocation per transaction.
func BenchmarkHotLoopFillUnpooled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := make([]uint32, 8)
		buf[0] = uint32(i)
		benchSink = buf
	}
}
