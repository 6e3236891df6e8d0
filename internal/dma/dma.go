// Package dma implements a coherent direct-memory-access engine: a bus
// master that copies line-aligned buffers without any cache of its own.
//
// Because its reads and (full-line, invalidating) writes travel the same
// snooped bus as every processor, the paper's coherence machinery covers
// it for free: a dirty source line in any cache is drained by the owner
// before the DMA read retries, and every cached copy of a destination line
// is invalidated when the DMA write passes the snoop window.  This is the
// substrate for the paper's future-work direction — tightly integrated
// specialized I/O processors moving data through shared memory.
//
// Software programs the engine through a small register bank mapped on the
// high-speed bus and polls STATUS for completion.
package dma

import (
	"fmt"

	"hetcc/internal/bus"
	"hetcc/internal/sim"
)

// Register offsets.
const (
	// RegSrc (RW): line-aligned source byte address.
	RegSrc uint32 = 0x0
	// RegDst (RW): line-aligned destination byte address.
	RegDst uint32 = 0x4
	// RegLen (RW): transfer length in bytes (line multiple).
	RegLen uint32 = 0x8
	// RegCtrl (WO): writing 1 starts the transfer.
	RegCtrl uint32 = 0xc
	// RegStatus (RO): bit 0 busy, bit 1 done, bit 2 error (bad program).
	RegStatus uint32 = 0x10
)

// Status bits.
const (
	StatusBusy  uint32 = 1 << 0
	StatusDone  uint32 = 1 << 1
	StatusError uint32 = 1 << 2
)

// RegisterSize is the aperture size in bytes.
const RegisterSize uint32 = 0x14

type phase uint8

const (
	idle phase = iota
	reading
	writing
)

// Engine is the DMA controller: one outstanding line transfer at a time.
type Engine struct {
	base      uint32
	lineBytes int
	bus       *bus.Bus
	master    int

	src, dst, length uint32
	status           uint32

	ph      phase
	offset  uint32
	pending bool // a bus transaction is in flight
	lineBuf []uint32

	// txn plus the prebound callbacks are reused across the (single
	// outstanding) line transfers so a long copy allocates nothing per line.
	txn         bus.Transaction
	readDoneFn  func(bus.Result)
	writeDoneFn func(bus.Result)

	// LinesCopied counts completed line transfers.
	LinesCopied uint64
	// Transfers counts completed full transfers.
	Transfers uint64

	// sched is the engine's event-scheduler registration (nil under the
	// tick scheduler; see BindScheduler).
	sched *sim.Handle
}

var _ bus.Device = (*Engine)(nil)

// New creates an engine with registers at base, transferring lineBytes per
// bus transaction, mastering b.
func New(base uint32, lineBytes int, b *bus.Bus) *Engine {
	e := &Engine{
		base:      base,
		lineBytes: lineBytes,
		bus:       b,
		master:    b.AddMaster("dma"),
		lineBuf:   make([]uint32, lineBytes/4),
	}
	e.readDoneFn = e.readDone
	e.writeDoneFn = e.writeDone
	return e
}

// Base returns the register bank base address.
func (e *Engine) Base() uint32 { return e.base }

// MasterID returns the engine's bus master id (tests).
func (e *Engine) MasterID() int { return e.master }

// Busy reports an in-progress transfer.
func (e *Engine) Busy() bool { return e.status&StatusBusy != 0 }

// BindScheduler attaches the engine to the event scheduler.  The platform
// calls it only when the event scheduler is in force.
func (e *Engine) BindScheduler(h *sim.Handle) { e.sched = h }

// NextWake implements sim.Waker: the engine needs a tick only while it has
// a transfer in progress with no bus transaction in flight (the tick
// submits the next line read or write).  Otherwise it sleeps until a
// register write starts a transfer or a bus callback advances the phase.
func (e *Engine) NextWake(uint64) (uint64, bool) {
	if e.Busy() && !e.pending {
		return 1, true
	}
	return 0, false
}

// wake requests a tick at the engine's next feasible clock edge — the
// current cycle when the DMA engine has not been evaluated yet this pass
// (it registers after the bus, so a bus-callback wake lands on the same
// cycle, exactly when a tick-mode engine would have acted).
func (e *Engine) wake() {
	if e.sched != nil {
		e.sched.Wake(e.sched.Now())
	}
}

// Contains implements bus.Device.
func (e *Engine) Contains(addr uint32) bool {
	return addr >= e.base && addr < e.base+RegisterSize
}

// Access implements bus.Device (the register bank; single-cycle).
func (e *Engine) Access(t *bus.Transaction) (int, bus.Result) {
	off := t.Addr - e.base
	res := bus.Result{}
	switch t.Kind {
	case bus.ReadWord:
		res.Val = e.readReg(off)
	case bus.WriteWord:
		e.writeReg(off, t.Val)
	case bus.RMWWord:
		res.Val = e.readReg(off)
		e.writeReg(off, t.Val)
	}
	return 1, res
}

func (e *Engine) readReg(off uint32) uint32 {
	switch off {
	case RegSrc:
		return e.src
	case RegDst:
		return e.dst
	case RegLen:
		return e.length
	case RegStatus:
		return e.status
	default:
		return 0
	}
}

func (e *Engine) writeReg(off uint32, v uint32) {
	if e.Busy() && off != RegStatus {
		return // registers are locked while a transfer runs
	}
	switch off {
	case RegSrc:
		e.src = v
	case RegDst:
		e.dst = v
	case RegLen:
		e.length = v
	case RegCtrl:
		if v&1 != 0 {
			e.start()
		}
	}
}

func (e *Engine) start() {
	lb := uint32(e.lineBytes)
	if e.length == 0 || e.length%lb != 0 || e.src%lb != 0 || e.dst%lb != 0 {
		e.status = StatusError
		return
	}
	e.status = StatusBusy
	e.ph = reading
	e.offset = 0
	e.pending = false
	e.wake()
}

// Tick implements sim.Ticker: drive one line transfer at a time through
// the bus.
func (e *Engine) Tick(uint64) {
	if !e.Busy() || e.pending {
		return
	}
	switch e.ph {
	case reading:
		e.pending = true
		e.txn.Reset(e.master, bus.ReadLine, e.src+e.offset, e.lineBytes/4, 0, nil)
		e.bus.Submit(&e.txn, e.readDoneFn)
	case writing:
		e.pending = true
		// The write consumes lineBuf directly: the bus samples Data during
		// the address/data phase, and the next read cannot overwrite the
		// buffer before this write completes (one transaction outstanding).
		e.txn.Reset(e.master, bus.WriteLineInv, e.dst+e.offset, e.lineBytes/4, 0, e.lineBuf)
		e.bus.Submit(&e.txn, e.writeDoneFn)
	default:
		panic(fmt.Sprintf("dma: busy in phase %d", e.ph))
	}
}

func (e *Engine) readDone(res bus.Result) {
	copy(e.lineBuf, res.Data) // fill buffers are pooled; snapshot before return
	e.pending = false
	e.ph = writing
	e.wake()
}

func (e *Engine) writeDone(bus.Result) {
	e.pending = false
	e.LinesCopied++
	e.offset += uint32(e.lineBytes)
	if e.offset >= e.length {
		e.status = StatusDone
		e.Transfers++
		e.ph = idle
	} else {
		e.ph = reading
	}
	e.wake()
}
