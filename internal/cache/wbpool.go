package cache

import (
	"hetcc/internal/bus"
	"hetcc/internal/coherence"
)

// wbKind distinguishes the three write-back flavours a controller issues.
type wbKind uint8

const (
	wbEvict wbKind = iota // dirty victim eviction
	wbClean               // software Clean (drain + invalidate)
	wbFlush               // snoop-triggered flush (ARTRY/HITM drain)
)

// wbJob is one in-flight write-back: the bus transaction, the snapshot of
// the line data it carries, and the bookkeeping its completion must perform.
// Unlike the single outstanding CPU request, several write-backs can be in
// flight at once (an eviction queued behind a snoop flush, for example), so
// jobs come from a per-controller free list: the transaction struct, data
// buffer and completion callback are all reused, making steady-state drains
// allocation-free.
type wbJob struct {
	ctl  *Controller
	txn  bus.Transaction
	buf  []uint32
	base uint32
	kind wbKind
	// line is wbFlush state: the array line being drained.
	line *Line
	// userDone is wbClean's caller callback.
	userDone func()
	// doneFn is the prebound j.done method value handed to the bus.
	doneFn func(bus.Result)
}

// setData snapshots the line payload into the job's reusable buffer.
func (j *wbJob) setData(d []uint32) {
	if cap(j.buf) < len(d) {
		j.buf = make([]uint32, len(d))
	}
	j.buf = j.buf[:len(d)]
	copy(j.buf, d)
}

func (ctl *Controller) getWB() *wbJob {
	if n := len(ctl.wbFree); n > 0 {
		j := ctl.wbFree[n-1]
		ctl.wbFree[n-1] = nil
		ctl.wbFree = ctl.wbFree[:n-1]
		return j
	}
	j := &wbJob{ctl: ctl}
	j.doneFn = j.done
	return j
}

func (ctl *Controller) putWB(j *wbJob) {
	j.line = nil
	j.userDone = nil
	ctl.wbFree = append(ctl.wbFree, j)
}

// done is the completion callback for every write-back kind.
func (j *wbJob) done(bus.Result) {
	ctl := j.ctl
	switch j.kind {
	case wbEvict:
		delete(ctl.pendingWB, j.base)
		ctl.events.Drain(ctl.masterID, j.base, j.txn.ID())
	case wbClean:
		delete(ctl.pendingWB, j.base)
		ctl.events.Drain(ctl.masterID, j.base, j.txn.ID())
		if j.userDone != nil {
			j.userDone()
		}
	case wbFlush:
		l := j.line
		l.flushPending = false
		ctl.events.Drain(ctl.masterID, l.Base, j.txn.ID())
		ctl.noteState(l.Base, l.State, l.flushNext)
		l.State = l.flushNext
		if l.State == coherence.Invalid && ctl.upgradeLive && l.Base == ctl.upgradeBase {
			ctl.upgradeLost = true
		}
	}
	ctl.putWB(j)
}
