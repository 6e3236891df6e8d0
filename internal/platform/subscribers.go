package platform

import (
	"fmt"

	"hetcc/internal/bus"
	"hetcc/internal/coherence"
	"hetcc/internal/event"
	"hetcc/internal/metrics"
)

// fromSnoopLogic reports whether a TAG-CAM snoop logic emitted r.  A core
// with a snoop logic has no snooping cache controller, so its SnoopHit
// records are the TAG CAM's, and so are its Drain records without a bus
// transfer (Txn 0).
func fromSnoopLogic(p *Platform, r *event.Record) bool {
	return r.Core < len(p.SnoopLogics) && p.SnoopLogics[r.Core] != nil && (r.Kind != event.Drain || r.Txn == 0)
}

// metricsHandler registers the bus, snoop-logic and wrapper instruments —
// the snoop pair only when a snoop logic exists, and per installed wrapper
// one counter per op its policy rewrites plus its override counter — and
// returns the subscriber that fills them from the records' measured values.
func metricsHandler(p *Platform) event.Handler {
	r := p.Metrics
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

// traceHandler returns the subscriber that formats bus and snoop-logic
// records into the text trace (Platform.Log).
func traceHandler(p *Platform) event.Handler {
	log, b := p.Log, p.Bus
	return func(r *event.Record) {
		switch r.Kind {
		case event.Retry:
			log.Addf("bus", "ARTRY %s %s 0x%08x (retry %d)", b.MasterName(r.Core), bus.Kind(r.BusKind), r.Addr, r.Retries)
		case event.BusGrant:
			log.Addf("bus", "grant %s %s 0x%08x shared=%v lat=%d", b.MasterName(r.Core), bus.Kind(r.BusKind), r.Addr, r.SharedOut, r.Latency)
		case event.BusComplete:
			log.Addf("bus", "done  %s %s 0x%08x", b.MasterName(r.Core), bus.Kind(r.BusKind), r.Addr)
		case event.SnoopHit:
			if fromSnoopLogic(p, r) {
				log.Addf(p.Config.Processors[r.Core].Model+"-snoop", "snoop hit 0x%08x -> nFIQ", r.Addr)
			}
		case event.Drain:
			if fromSnoopLogic(p, r) {
				log.Addf(p.Config.Processors[r.Core].Model+"-snoop", "ISR complete 0x%08x (resident=%v)", r.Addr, r.Resident)
			}
		}
	}
}
