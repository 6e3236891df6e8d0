package platform

import (
	"fmt"

	"hetcc/internal/bus"
	"hetcc/internal/coherence"
	"hetcc/internal/event"
	"hetcc/internal/metrics"
	"hetcc/internal/trace"
)

// fromSnoopLogic reports whether a TAG-CAM snoop logic emitted r.  A core
// with a snoop logic has no snooping cache controller, so its SnoopHit
// records are the TAG CAM's, and so are its Drain records without a bus
// transfer (Txn 0).
func fromSnoopLogic(p *Platform, r *event.Record) bool {
	return r.Core < len(p.SnoopLogics) && p.SnoopLogics[r.Core] != nil && (r.Kind != event.Drain || r.Txn == 0)
}

// metricsHandler registers the bus, cache, snoop-logic and wrapper
// instruments — the snoop pair only when a snoop logic exists, and per
// installed wrapper one counter per op its policy rewrites plus its override
// counter — and returns the subscriber that fills them from the records'
// measured values.  The cache pair times the cores' own fills and
// write-backs, submission to completion, so the DMA engine's transfers are
// left out.
func metricsHandler(p *Platform) event.Handler {
	r := p.Metrics
	missLat := r.Histogram("cache.miss.buscycles")
	drainLat := r.Histogram("cache.drain.buscycles")
	cores := len(p.Controllers)
	grantWait := r.Histogram("bus.grant.wait.buscycles")
	tenure := r.Histogram("bus.tenure.enginecycles")
	retries := r.Histogram("bus.retries.per.txn")
	var camHits *metrics.Counter
	var drain *metrics.Histogram
	for _, sl := range p.SnoopLogics {
		if sl != nil {
			camHits, drain = r.Counter("snoop.cam.hits"), r.Histogram("snoop.drain.buscycles")
		}
	}
	// convert[i][op] counts wrapper i's conversions of op; nil for cores
	// without a wrapper and ops its policy keeps.
	convert := make([][coherence.BusUpd + 1]*metrics.Counter, len(p.Wrappers))
	overrides := make([]*metrics.Counter, len(p.Wrappers))
	for i, w := range p.Wrappers {
		if w == nil {
			continue
		}
		for op := coherence.BusRd; op <= coherence.BusUpd; op++ {
			if to := w.Policy().SnoopOp(op); to != op {
				convert[i][op] = r.Counter(fmt.Sprintf("wrapper.%s.convert.%v→%v", w.Name(), op, to))
			}
		}
		overrides[i] = r.Counter(fmt.Sprintf("wrapper.%s.shared.overrides", w.Name()))
	}
	return func(rec *event.Record) {
		switch rec.Kind {
		case event.BusGrant:
			grantWait.Observe(rec.Wait)
		case event.BusComplete:
			tenure.Observe(rec.Latency)
			retries.Observe(uint64(rec.Retries))
			if rec.Core < cores {
				switch bus.Kind(rec.BusKind) {
				case bus.ReadLine, bus.ReadLineOwn:
					missLat.Observe(rec.Wait)
				case bus.WriteLine:
					drainLat.Observe(rec.Wait)
				}
			}
		case event.SnoopHit:
			if fromSnoopLogic(p, rec) {
				camHits.Inc()
			}
		case event.Drain:
			if fromSnoopLogic(p, rec) {
				drain.Observe(rec.Wait)
			}
		case event.WrapperConvert:
			convert[rec.Core][rec.Op].Inc()
		case event.SharedOverride:
			overrides[rec.Core].Inc()
		}
	}
}

// traceHandler returns the subscriber that keeps bus and snoop-logic
// records in the text trace (Platform.Log); traceFormat renders them when
// the trace is read.
func traceHandler(p *Platform) event.Handler {
	log := p.Log
	return func(r *event.Record) {
		switch r.Kind {
		case event.Retry, event.BusGrant, event.BusComplete:
			log.Record(r)
		case event.SnoopHit, event.Drain:
			if fromSnoopLogic(p, r) {
				log.Record(r)
			}
		}
	}
}

// traceFormat renders a record traceHandler kept as its trace line.
func traceFormat(p *Platform) trace.Formatter {
	b := p.Bus
	return func(r *event.Record) (string, string) {
		switch r.Kind {
		case event.Retry:
			return "bus", fmt.Sprintf("ARTRY %s %s 0x%08x (retry %d)", b.MasterName(r.Core), bus.Kind(r.BusKind), r.Addr, r.Retries)
		case event.BusGrant:
			return "bus", fmt.Sprintf("grant %s %s 0x%08x shared=%v lat=%d", b.MasterName(r.Core), bus.Kind(r.BusKind), r.Addr, r.SharedOut, r.Latency)
		case event.BusComplete:
			return "bus", fmt.Sprintf("done  %s %s 0x%08x", b.MasterName(r.Core), bus.Kind(r.BusKind), r.Addr)
		case event.SnoopHit:
			return p.Config.Processors[r.Core].Model + "-snoop", fmt.Sprintf("snoop hit 0x%08x -> nFIQ", r.Addr)
		default: // event.Drain
			return p.Config.Processors[r.Core].Model + "-snoop", fmt.Sprintf("ISR complete 0x%08x (resident=%v)", r.Addr, r.Resident)
		}
	}
}
