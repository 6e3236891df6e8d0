package platform

import (
	"io"

	"hetcc/internal/vcd"
)

// vcdProbe samples the bus and cores every engine cycle and streams the
// changes into a VCD file.  It is registered as the last engine ticker so
// it observes each cycle's settled state.
type vcdProbe struct {
	p *Platform
	w *vcd.Writer
	// err is the dump's first write or flush error, set by Run.
	err error

	busBusy   *vcd.Signal
	busMaster *vcd.Signal
	busKind   *vcd.Signal
	busAddr   *vcd.Signal
	busArtry  *vcd.Signal
	busShared *vcd.Signal

	cpuStalled []*vcd.Signal
	cpuHalted  []*vcd.Signal
	cpuISR     []*vcd.Signal
	cpuPC      []*vcd.Signal
}

func newVCDProbe(p *Platform, out io.Writer) (*vcdProbe, error) {
	w := vcd.NewWriter(out, "10ns")
	pr := &vcdProbe{p: p, w: w}
	pr.busBusy = w.Declare("bus", "busy", 1)
	pr.busMaster = w.Declare("bus", "master", 8)
	pr.busKind = w.Declare("bus", "kind", 8)
	pr.busAddr = w.Declare("bus", "addr", 32)
	pr.busArtry = w.Declare("bus", "artry", 1)
	pr.busShared = w.Declare("bus", "shared_seen", 32)
	for _, c := range p.CPUs {
		mod := c.Name()
		pr.cpuStalled = append(pr.cpuStalled, w.Declare(mod, "stalled", 1))
		pr.cpuHalted = append(pr.cpuHalted, w.Declare(mod, "halted", 1))
		pr.cpuISR = append(pr.cpuISR, w.Declare(mod, "in_isr", 1))
		pr.cpuPC = append(pr.cpuPC, w.Declare(mod, "instret", 32))
	}
	if err := w.Begin(); err != nil {
		return nil, err
	}
	return pr, nil
}

// Tick implements sim.Ticker.  A write error sticks in the writer, which
// then writes nothing more and returns it from Close, so Set's result can
// be dropped here: Run reports it through Platform.VCDErr.
func (pr *vcdProbe) Tick(now uint64) {
	probe := pr.p.Bus.Probe()
	set := func(s *vcd.Signal, v uint64) { _ = pr.w.Set(s, now, v) }
	set(pr.busBusy, b2u(probe.Busy))
	set(pr.busMaster, uint64(probe.Master))
	set(pr.busKind, uint64(probe.Kind))
	set(pr.busAddr, uint64(probe.Addr))
	set(pr.busArtry, b2u(probe.Aborting))
	set(pr.busShared, pr.p.Bus.Stats().SharedSeen)
	for i, c := range pr.p.CPUs {
		set(pr.cpuStalled[i], b2u(c.Stalled()))
		set(pr.cpuHalted[i], b2u(c.Halted()))
		set(pr.cpuISR[i], b2u(c.InISR()))
		set(pr.cpuPC[i], c.Stats().Instructions)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
