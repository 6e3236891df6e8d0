package periph

import (
	"strings"

	"hetcc/internal/sim"
)

// Timer register offsets.
const (
	// TimerCount (RO) is the free-running peripheral-clock counter.
	TimerCount uint32 = 0x0
	// TimerCtrl (RW): bit 0 enables counting, bit 1 resets the counter.
	TimerCtrl uint32 = 0x4
	// TimerCompare (RW) is read back as written (match logic is left to
	// software in this model).
	TimerCompare uint32 = 0x8
)

// Timer is a free-running counter peripheral.  The platform ticks it on
// the peripheral clock.
type Timer struct {
	count   uint32
	ctrl    uint32
	compare uint32

	// Event-scheduler support (see BindScheduler): instead of being ticked
	// on every peripheral-clock edge, the timer counts its skipped edges in
	// bulk whenever the count could be observed.  edgesSeen is the number of
	// peripheral-clock edges already applied; div the engine-cycle divisor.
	sched     *sim.Handle
	div       uint64
	edgesSeen uint64
}

// NewTimer returns a disabled timer.
func NewTimer() *Timer { return &Timer{} }

// Name implements Device.
func (t *Timer) Name() string { return "timer" }

// Size implements Device.
func (t *Timer) Size() uint32 { return 12 }

// BindScheduler switches the timer to lazy edge accounting for the event
// scheduler: h is the timer's registration handle.  Leave it unbound under
// the tick scheduler.
func (t *Timer) BindScheduler(h *sim.Handle) {
	t.sched = h
	t.div = h.Div()
}

// Tick advances the counter when enabled (platform clock callback).
func (t *Timer) Tick(now uint64) {
	if t.sched != nil {
		t.syncEdges(now)
		return
	}
	if t.ctrl&1 != 0 {
		t.count++
	}
}

// NextWake implements sim.Waker: the timer never needs a tick of its own —
// every skipped edge is reconstructed on demand.
func (t *Timer) NextWake(uint64) (uint64, bool) { return 0, false }

// CatchUp implements sim.CatchUpper: apply every peripheral-clock edge at
// engine cycles <= through.
func (t *Timer) CatchUp(through uint64) {
	if t.sched != nil {
		t.syncEdges(through)
	}
}

// syncEdges bulk-applies the peripheral-clock edges at engine cycles <= x
// that have not been counted yet.
func (t *Timer) syncEdges(x uint64) {
	if x < t.edgesSeen*t.div {
		return // no uncounted edge at or before x; skips the division
	}
	target := x/t.div + 1 // edges lie at 0, div, 2*div, ...
	if target <= t.edgesSeen {
		return
	}
	if t.ctrl&1 != 0 {
		t.count += uint32(target - t.edgesSeen)
	}
	t.edgesSeen = target
}

// syncExternal brings the counter current for a register access, through
// the horizon of the accessing component's position: the bus registers
// before the timer, so its accesses see only edges on earlier cycles.
func (t *Timer) syncExternal() {
	if t.sched == nil {
		return
	}
	if through, ok := t.sched.Horizon(); ok {
		t.syncEdges(through)
	}
}

// ReadReg implements Device.
func (t *Timer) ReadReg(off uint32) uint32 {
	t.syncExternal()
	switch off {
	case TimerCount:
		return t.count
	case TimerCtrl:
		return t.ctrl
	case TimerCompare:
		return t.compare
	default:
		return 0
	}
}

// WriteReg implements Device.
func (t *Timer) WriteReg(off uint32, v uint32) {
	t.syncExternal() // the skipped edges counted under the old ctrl value
	switch off {
	case TimerCtrl:
		if v&2 != 0 {
			t.count = 0
		}
		t.ctrl = v & 1
	case TimerCompare:
		t.compare = v
	}
}

// Console register offsets.
const (
	// ConsoleData (WO): writing emits the low byte.
	ConsoleData uint32 = 0x0
	// ConsoleStatus (RO): always ready (bit 0).
	ConsoleStatus uint32 = 0x4
)

// Console is a write-only character device that collects program output —
// the SoC's debug UART.
type Console struct {
	sb     strings.Builder
	Writes uint64
}

// NewConsole returns an empty console.
func NewConsole() *Console { return &Console{} }

// Name implements Device.
func (c *Console) Name() string { return "console" }

// Size implements Device.
func (c *Console) Size() uint32 { return 8 }

// ReadReg implements Device.
func (c *Console) ReadReg(off uint32) uint32 {
	if off == ConsoleStatus {
		return 1 // always ready
	}
	return 0
}

// WriteReg implements Device.
func (c *Console) WriteReg(off uint32, v uint32) {
	if off == ConsoleData {
		c.sb.WriteByte(byte(v))
		c.Writes++
	}
}

// Output returns everything written so far.
func (c *Console) Output() string { return c.sb.String() }
