package span

import (
	"testing"

	"hetcc/internal/bus"
	"hetcc/internal/event"
)

// The collector is event-driven: when spans are disabled it is simply never
// subscribed, so the hot path carries no span code at all.  These pins keep
// the nil-safe surface allocation-free so accidental wiring of a disabled
// collector can never cost the hot loop anything (`make allocs`).

// TestAllocsNilCollector: every method on a nil *Collector is a single nil
// check and zero garbage.
func TestAllocsNilCollector(t *testing.T) {
	var c *Collector
	r := event.Record{Kind: event.BusRequest, Core: 1, Addr: 0x40, Txn: 1}
	n := testing.AllocsPerRun(1000, func() {
		c.HandleEvent(&r)
		c.Finish(nil, 0)
		_ = c.Txns()
		_ = c.Links()
		_ = c.Dropped()
	})
	if n != 0 {
		t.Fatalf("nil collector allocates %.1f/op, want 0", n)
	}
}

// TestAllocsSpanCollector: a warmed collector records a transaction's whole
// life — request, grant, a drain-retry deferred until the write-back is
// submitted, that write-back's drain, and both completions — without
// per-transaction garbage.  The transaction records and the retry-epoch slab
// grow by doubling, so their few growth allocations amortise to 0 over the
// runs.
func TestAllocsSpanCollector(t *testing.T) {
	c := NewCollector(32)
	f := newFeed(c)
	rd, wb := uint8(bus.ReadLine), uint8(bus.WriteLine)
	const addr = 0x2000_0040
	var id uint64
	life := func() {
		id += 2
		req, flush := id-1, id
		f.at(f.cycle+1).sink.BusRequest(0, rd, addr, req)
		f.at(f.cycle+1).sink.BusGrant(0, rd, addr, false, req, 0, 0)
		f.at(f.cycle+1).sink.Retry(0, rd, addr, 1, true, req)
		f.at(f.cycle+1).sink.BusRequest(1, wb, addr, flush)
		f.at(f.cycle+1).sink.BusGrant(1, wb, addr, false, flush, 0, 0)
		f.at(f.cycle+1).sink.BusComplete(1, wb, addr, flush, 0, 0, 0)
		f.at(f.cycle).sink.Drain(1, addr, flush)
		f.at(f.cycle+1).sink.BusGrant(0, rd, addr, true, req, 0, 0)
		f.at(f.cycle+1).sink.BusComplete(0, rd, addr, req, 0, 0, 0)
	}
	for i := 0; i < 16; i++ {
		life()
	}
	if n := testing.AllocsPerRun(1000, life); n != 0 {
		t.Fatalf("span collector allocates %.1f/op, want 0", n)
	}
	last := c.Txns()[len(c.Txns())-2]
	if len(last.Retries) != 1 || last.Retries[0].Cause != last.ID+1 || !last.Done || c.Dropped() != 0 {
		t.Fatalf("last transaction %+v: want one drain retry caused by the next id", last)
	}
}
