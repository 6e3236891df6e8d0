package platform

import (
	"fmt"

	"hetcc/internal/audit"
	"hetcc/internal/bus"
	"hetcc/internal/cache"
	"hetcc/internal/coherence"
	"hetcc/internal/core"
	"hetcc/internal/cpu"
	"hetcc/internal/dma"
	"hetcc/internal/event"
	"hetcc/internal/isa"
	"hetcc/internal/lock"
	"hetcc/internal/memory"
	"hetcc/internal/metrics"
	"hetcc/internal/periph"
	"hetcc/internal/profile"
	"hetcc/internal/sharing"
	"hetcc/internal/sim"
	"hetcc/internal/snooplogic"
	"hetcc/internal/span"
	"hetcc/internal/trace"
	"hetcc/internal/wrapper"
)

// unwiredShared models the un-integrated heterogeneous bus of the paper's
// Tables 2 and 3: snooping works (transactions are visible) but the
// incompatible shared-signal conventions mean no master ever samples an
// asserted shared signal, and interventions are impossible.
type unwiredShared struct{}

func (unwiredShared) ConvertSnoop(op coherence.BusOp) coherence.BusOp { return op }
func (unwiredShared) OverrideShared(bool) bool                        { return false }
func (unwiredShared) AllowSupply() bool                               { return false }

// Platform is a fully wired system ready to load programs and run.
type Platform struct {
	Config      Config
	Engine      *sim.Engine
	Bus         *bus.Bus
	Memory      *memory.Memory
	CPUs        []*cpu.CPU
	Controllers []*cache.Controller
	Wrappers    []*wrapper.Wrapper       // nil entries where no wrapper is installed
	SnoopLogics []*snooplogic.SnoopLogic // nil entries for coherent processors
	Integration core.Integration
	Locks       *lock.Manager
	LockReg     *lock.Register // non-nil when the hardware lock register is in use
	Periph      *periph.Bridge
	Timer       *periph.Timer
	Console     *periph.Console
	DMA         *dma.Engine // non-nil when Config.DMA is set
	Log         *trace.Log
	// Metrics is the run's metrics registry (nil unless Config.Metrics).
	Metrics *metrics.Registry
	// Manifest, when set, is stamped into reports as the provenance block
	// (schema v5).  Producers that need machine-independent output (the
	// batch runner, golden tests) either leave it nil or stamp only
	// deterministic fields; cmd/hetccsim records the full toolchain.
	Manifest *Manifest

	sampler    *metrics.Sampler
	checker    *checker
	vcd        *vcdProbe
	halted     int
	events     *event.Sink
	auditor    *audit.Auditor
	eventJSONL *event.JSONLWriter
	profiler   *profile.Ledger
	spans      *span.Collector
	sharing    *sharing.Collector
}

// Spans returns the causal transaction-span collector (nil unless
// Config.Spans).  Valid after Run: the collector is finished and its stall
// links, edges and JSONL export are available.
func (p *Platform) Spans() *span.Collector { return p.spans }

// MasterName labels bus master id for exports: the processor model for CPU
// cores, "dma" for the DMA engine.
func (p *Platform) MasterName(id int) string {
	if id >= 0 && id < len(p.Config.Processors) {
		return p.Config.Processors[id].Model
	}
	if p.DMA != nil && id == len(p.Config.Processors) {
		return "dma"
	}
	return fmt.Sprintf("master %d", id)
}

// Build validates cfg and wires the system.
func Build(cfg Config) (*Platform, error) {
	if len(cfg.Processors) == 0 {
		return nil, fmt.Errorf("platform: no processors")
	}
	switch cfg.Scheduler {
	case "", SchedulerEvent, SchedulerTick:
	default:
		return nil, fmt.Errorf("platform: unknown scheduler %q (want %q or %q)", cfg.Scheduler, SchedulerTick, SchedulerEvent)
	}
	if cfg.Timing == (memory.Timing{}) {
		cfg.Timing = memory.DefaultTiming()
	}
	lineBytes := cfg.Processors[0].Cache.LineBytes
	for i, spec := range cfg.Processors {
		if err := spec.Cache.Validate(); err != nil {
			return nil, fmt.Errorf("platform: processor %d: %w", i, err)
		}
		if spec.Cache.LineBytes != lineBytes {
			return nil, fmt.Errorf("platform: heterogeneous line sizes (%d vs %d) are not supported by the shared-bus snoop model", spec.Cache.LineBytes, lineBytes)
		}
	}

	protocols := make([]coherence.Kind, len(cfg.Processors))
	for i, s := range cfg.Processors {
		protocols[i] = s.Protocol
	}
	integ, err := core.Reduce(protocols)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}

	engine := sim.NewEngine()
	mem := memory.New()
	b := bus.New(bus.Config{Timing: cfg.Timing, Pipelined: cfg.PipelinedBus}, mem)

	p := &Platform{
		Config:      cfg,
		Engine:      engine,
		Bus:         b,
		Memory:      mem,
		Integration: integ,
	}

	var subs []event.Handler // the event stream's subscribers
	if cfg.TraceCap > 0 {
		p.Log = trace.NewLog(cfg.TraceCap, engine.Now, traceFormat(p))
	}
	if cfg.Metrics {
		p.Metrics = metrics.NewRegistry()
	}
	if cfg.Profile {
		p.profiler = profile.NewLedger(len(cfg.Processors))
		subs = append(subs, p.profiler.HandleEvent)
	}
	if cfg.Spans {
		p.spans = span.NewCollector(lineBytes)
		subs = append(subs, p.spans.HandleEvent)
	}
	if cfg.Sharing {
		masters := len(cfg.Processors)
		if cfg.DMA {
			masters++ // the DMA engine is a bus master too
		}
		window := cfg.MetricsWindow
		if window == 0 {
			window = DefaultMetricsWindow
		}
		p.sharing = sharing.NewCollector(sharing.Config{
			Masters:   masters,
			LineBytes: lineBytes,
			Window:    window,
		})
		subs = append(subs, p.sharing.HandleEvent)
	}
	if cfg.EventLog != nil {
		p.eventJSONL = event.NewJSONLWriter(cfg.EventLog, func(k uint8) string { return bus.Kind(k).String() })
		subs = append(subs, p.eventJSONL.Handle)
	}
	if cfg.Audit {
		p.auditor = audit.New(audit.Config{
			Cores:   len(cfg.Processors),
			Allowed: auditAllowedStates(cfg, integ),
		})
		subs = append(subs, p.auditor.Handle)
	}

	// Lock subsystem: each lock id gets its own 256-byte block of the
	// uncached lock area (or a slot of the cached demo region).
	count := cfg.Lock.Count
	if count <= 0 {
		count = 1
	}
	lockCfg := lock.Config{
		Tasks:     len(cfg.Processors),
		Alternate: cfg.Lock.Alternate,
		SpinDelay: cfg.Lock.SpinDelay,
	}
	if cfg.Lock.Kind == LockHardwareRegister && count > 1 {
		return nil, fmt.Errorf("platform: the hardware lock register supports only one lock (the paper's 1-bit register), got %d", count)
	}
	for id := 0; id < count; id++ {
		base := LockBase + uint32(id)*0x100
		layout := lock.Layout{TurnWord: base + 4}
		switch cfg.Lock.Kind {
		case LockUncachedTAS:
			lockCfg.Kind = lock.UncachedTAS
			layout.LockWord = base
		case LockHardwareRegister:
			lockCfg.Kind = lock.HardwareRegister
			layout.LockWord = LockRegisterAddr
			p.LockReg = lock.NewRegister(LockRegisterAddr)
			b.AddDevice(p.LockReg)
		case LockBakery:
			lockCfg.Kind = lock.Bakery
			for i := range cfg.Processors {
				layout.Choosing = append(layout.Choosing, base+0x40+uint32(4*i))
				layout.Number = append(layout.Number, base+0x80+uint32(4*i))
			}
		case LockCachedTAS:
			lockCfg.Kind = lock.CachedTAS
			layout.LockWord = CachedLockAddr + uint32(id)*0x40
		case LockPeterson:
			lockCfg.Kind = lock.Peterson
			layout.Choosing = []uint32{base + 0x40, base + 0x44}
			layout.Number = []uint32{base + 0x48}
		default:
			return nil, fmt.Errorf("platform: unknown lock kind %v", cfg.Lock.Kind)
		}
		lockCfg.Layouts = append(lockCfg.Layouts, layout)
	}
	p.Locks, err = lock.NewManager(lockCfg)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}

	// Region attributes: private regions are always cacheable; the shared
	// region only when the strategy caches shared data; lock variables and
	// the device aperture are never cacheable.
	sharedCacheable := cfg.Solution != CacheDisabled
	attr := func(addr uint32) cpu.Attr {
		switch {
		case InShared(addr):
			return cpu.Attr{Cacheable: sharedCacheable}
		case InPrivate(addr):
			return cpu.Attr{Cacheable: true}
		default:
			return cpu.Attr{Cacheable: false}
		}
	}

	// Hardware snooping (cache snoop ports + snoop logic) exists only in
	// the proposed solution; the software and cache-disabled baselines run
	// without any coherence hardware, as in the paper's evaluation.
	hwCoherence := cfg.Solution == Proposed

	// The golden model serves both the Verify checker and the auditor's
	// stale-read check.
	if cfg.Verify || cfg.Audit {
		p.checker = &checker{limit: 64, auditor: p.auditor}
		if cfg.Verify && cfg.RaceCheck {
			p.checker.lockDepth = func(core int) int { return p.CPUs[core].LocksHeld() }
		}
	}

	for i, spec := range cfg.Processors {
		proto := spec.Protocol
		if proto == coherence.None {
			// A coherence-less core still has a cache; it behaves as a
			// private MEI cache (allocate exclusive, dirty on write).
			proto = coherence.MEI
		}
		arr, err := cache.New(spec.Cache, coherence.New(proto))
		if err != nil {
			return nil, fmt.Errorf("platform: processor %d: %w", i, err)
		}
		var policy cache.Policy = cache.Passthrough{}
		var w *wrapper.Wrapper
		if hwCoherence && spec.Protocol != coherence.None {
			if cfg.DisableWrappers {
				// Tables 2/3 demo mode: processors observe each other's
				// transactions but their shared-signal conventions are not
				// wired together, so a master always samples deasserted
				// ("Processor 1 cannot assert the shared signal").
				policy = unwiredShared{}
			} else {
				w = wrapper.New(spec.Model, integ.Policies[i])
				policy = w
			}
		}
		snoops := hwCoherence && spec.Protocol != coherence.None
		ctl := cache.NewController(spec.Model, arr, b, policy, snoops)
		if hwCoherence && spec.WrapperLatency > 0 {
			b.SetMasterLatency(ctl.MasterID(), spec.WrapperLatency)
		}
		if spec.WriteThroughShared {
			if !coherence.New(proto).Has(coherence.Shared) {
				return nil, fmt.Errorf("platform: processor %d (%s): write-through lines need a protocol with an S state, got %v", i, spec.Model, proto)
			}
			ctl.SetWriteThrough(InShared)
		}

		var sl *snooplogic.SnoopLogic
		if hwCoherence && spec.Protocol == coherence.None {
			sl = snooplogic.New(b, ctl.MasterID(), spec.Cache.LineBytes, nil)
			// The hardware TAG CAM is sized to the shadowed cache, one
			// entry per line; stale entries beyond that are flushed
			// through the ISR.
			sl.SetCapacity(spec.Cache.SizeBytes / spec.Cache.LineBytes)
		}

		c := cpu.New(cpu.Config{
			Name:              spec.Model,
			ClockDiv:          spec.ClockDiv,
			InterruptResponse: spec.InterruptResponse,
			ISREntry:          spec.ISREntry,
			ISRExit:           spec.ISRExit,
			CacheOpOverhead:   spec.CacheOpOverhead,
			AccessOverhead:    spec.AccessOverhead,
		}, i, ctl, attr, p.Locks, sl)
		if sl != nil {
			sl.SetFIQRaiser(c)
		}
		c.SetMetrics(p.Metrics)
		c.SetProfile(p.profiler)
		if p.checker != nil {
			c.SetHooks(cpu.Hooks{OnLoad: p.checker.onLoad, OnStore: p.checker.onStore})
		}
		c.OnHalt(func(int) {
			p.halted++
			if p.halted == len(p.CPUs) {
				engine.Stop("all programs retired", nil)
			}
		})

		p.CPUs = append(p.CPUs, c)
		p.Controllers = append(p.Controllers, ctl)
		p.Wrappers = append(p.Wrappers, w)
		p.SnoopLogics = append(p.SnoopLogics, sl)
	}

	// Low-speed peripheral bus behind a bridge, with the standard timer
	// and debug console.
	p.Periph = periph.NewBridge(PeriphBase, PeriphSize, 4)
	p.Timer = periph.NewTimer()
	p.Console = periph.NewConsole()
	if err := p.Periph.Attach(TimerBase-PeriphBase, p.Timer); err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	if err := p.Periph.Attach(ConsoleBase-PeriphBase, p.Console); err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	b.AddDevice(p.Periph)

	if cfg.DMA {
		p.DMA = dma.New(DMABase, lineBytes, b)
		b.AddDevice(p.DMA)
	}

	// All masters and snoopers are registered: freeze the per-master snoop
	// fan-out sets so broadcasts walk precomputed flat lists.
	b.FinalizeTopology()
	if p.Metrics != nil {
		subs = append(subs, metricsHandler(p))
	}
	if p.Log != nil {
		subs = append(subs, traceHandler(p))
	}
	// The sink exists exactly when something subscribes; otherwise each
	// would-be emission is one nil check.
	if len(subs) > 0 {
		p.events = event.NewSink(engine.Now)
		for _, h := range subs {
			p.events.Subscribe(h)
		}
		b.SetEvents(p.events)
		for i, ctl := range p.Controllers {
			ctl.SetEvents(p.events)
			if w := p.Wrappers[i]; w != nil {
				w.SetEvents(p.events, i)
			}
			if sl := p.SnoopLogics[i]; sl != nil {
				sl.SetEvents(p.events)
			}
		}
	}

	b.OnDeadlock(func(aborts, retries int) {
		p.Log.Addf("bus", "hardware deadlock detected (consecutive aborts %d, transaction retries %d)", aborts, retries)
		engine.Stop("hardware deadlock", bus.ErrHardwareDeadlock)
	})

	// Tick order: cores in platform order, then the bus, then the optional
	// waveform probe.  The order is fixed so runs are reproducible; under
	// the event scheduler the same order breaks same-cycle wake ties.
	cpuHandles := make([]*sim.Handle, len(p.CPUs))
	for i, c := range p.CPUs {
		cpuHandles[i] = engine.Register(fmt.Sprintf("cpu%d:%s", i, c.Name()), cfg.Processors[i].ClockDiv, c)
	}
	busHandle := engine.Register("bus", BusClockDiv, b)
	// The peripheral clock runs at half the bus clock.
	timerDiv := BusClockDiv * 2
	timerHandle := engine.Register("timer", timerDiv, p.Timer)
	var dmaHandle *sim.Handle
	if p.DMA != nil {
		dmaHandle = engine.Register("dma", BusClockDiv, p.DMA)
	}
	if p.Metrics != nil {
		window := cfg.MetricsWindow
		if window == 0 {
			window = DefaultMetricsWindow
		}
		s := p.Metrics.NewSampler(window)
		// Bus utilization: busy bus cycles this window over the bus cycles
		// the window spans (window engine cycles / BusClockDiv).
		busCyclesPerWindow := float64(window / BusClockDiv)
		var prevBusy uint64
		s.Level("bus.utilization", func() float64 {
			busy := b.Stats().BusyCycles
			u := float64(busy-prevBusy) / busCyclesPerWindow
			prevBusy = busy
			return u
		})
		s.Delta("bus.artry.retries", func() float64 { return float64(b.Stats().Aborted) })
		s.Delta("bus.completed", func() float64 { return float64(b.Stats().Completed) })
		s.Delta("snoop.cam.hits", func() float64 {
			var hits uint64
			for _, sl := range p.SnoopLogics {
				if sl != nil {
					hits += sl.Stats().Hits
				}
			}
			return float64(hits)
		})
		p.sampler = s
		engine.Register("metrics", window, s)
	}
	if cfg.VCD != nil {
		probe, err := newVCDProbe(p, cfg.VCD)
		if err != nil {
			return nil, fmt.Errorf("platform: vcd: %w", err)
		}
		p.vcd = probe
		engine.Register("vcd", 1, probe)
	}

	// Scheduler selection (DESIGN.md §8).  The event scheduler is the
	// default.
	if cfg.Scheduler != SchedulerTick {
		for i, c := range p.CPUs {
			c.BindScheduler(cpuHandles[i])
		}
		b.BindScheduler(busHandle)
		p.Timer.BindScheduler(timerHandle)
		if p.DMA != nil {
			p.DMA.BindScheduler(dmaHandle)
		}
		engine.UseEventScheduler()
	}

	return p, nil
}

// auditAllowedStates computes each core's legal post-reduction state set for
// the invariant auditor.  Under the Proposed solution with wrappers, that is
// the paper's reduction table (core.AllowedStates, including the MSI-in-MEI
// exception where S behaves as E); everywhere else — the baselines, or the
// deliberately broken DisableWrappers mode — the cache runs its native
// protocol unrestricted, so the check reduces to "a state this protocol
// defines".
func auditAllowedStates(cfg Config, integ core.Integration) []coherence.StateSet {
	out := make([]coherence.StateSet, len(cfg.Processors))
	for i, spec := range cfg.Processors {
		native := spec.Protocol
		effective := native
		if cfg.Solution == Proposed && !cfg.DisableWrappers {
			effective = integ.Effective
		}
		out[i] = core.AllowedStates(native, effective)
		if spec.WriteThroughShared {
			// Write-through lines follow the SI protocol and may hold S
			// regardless of the wrapper's shared-signal policy ("only
			// write-through lines can have the S state").
			out[i].Add(coherence.Shared)
		}
	}
	return out
}

// EventLogStats reports how many JSONL records were written to
// Config.EventLog and the first write error, if any (0, nil when the export
// is off).
func (p *Platform) EventLogStats() (written uint64, err error) {
	if p.eventJSONL == nil {
		return 0, nil
	}
	return p.eventJSONL.Written(), p.eventJSONL.Err()
}

// CloseEventLog finishes the Config.EventLog export, flushing any buffered
// target and returning the first write or flush error (nil when the export
// is off).  The caller still owns — and closes — the underlying file.
func (p *Platform) CloseEventLog() error {
	if p.eventJSONL == nil {
		return nil
	}
	return p.eventJSONL.Close()
}

// LoadPrograms installs one program per core.
func (p *Platform) LoadPrograms(progs []isa.Program) error {
	if len(progs) != len(p.CPUs) {
		return fmt.Errorf("platform: %d programs for %d cores", len(progs), len(p.CPUs))
	}
	for i, prog := range progs {
		if err := p.CPUs[i].LoadProgram(prog); err != nil {
			return err
		}
	}
	return nil
}
