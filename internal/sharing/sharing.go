// Package sharing characterises *why* the coherence protocol behaved as it
// did: which lines are private, read-only shared, read-write shared,
// migratory or producer-consumer; which master pairs actually communicate
// (data supplies, drain-and-retries, invalidations, wrapper-converted
// traffic); and where on the address map the bus traffic concentrates over
// time.  This is the workload-characterisation layer the adaptive-protocol
// and interconnect roadmap items depend on — per-line sharing-pattern
// detection is the prerequisite for hybrid update/invalidate policies, and
// the communication matrix is the evidence a split-transaction or directory
// backend would be judged against.
//
// The collector is driven entirely by the coherence event stream (package
// event): classification reads the line-grain BusGrant records, the matrix
// reads the oriented SnoopHit records, false-sharing detection reads the
// word-grain MemAccess records, and shared-override attribution latches each
// master's last BusComplete (the bus emits BusComplete before the completion
// callback that triggers the wrapper's SharedOverride, so the latch is
// exact).  It has zero simulation-kernel imports and the same layering rules
// as package span: a nil *Collector is valid everywhere and records nothing,
// and the hot paths carry no sharing-specific code at all.
//
// Retention is bounded like the metrics sampler: per-line state stops
// growing at MaxLines (further lines aggregate into an overflow traffic
// bucket, so counters still sum to the event-stream totals), and the
// windowed heatmap keeps the most recent MaxWindows windows, counting what
// it evicts.  The steady-state emit path allocates nothing (pinned by
// TestAllocsSharingCollector).
package sharing

import (
	"math/bits"

	"hetcc/internal/bus"
	"hetcc/internal/event"
)

// Class is the lifetime sharing classification of one cache line.
type Class uint8

const (
	// ClassPrivate: a single master accounts for every access.
	ClassPrivate Class = iota
	// ClassReadOnly: at least two masters touched the line, none wrote.
	ClassReadOnly
	// ClassProducerConsumer: exactly one master writes, at least one other
	// master reads.
	ClassProducerConsumer
	// ClassMigratory: ownership migrates — at least two masters write, and
	// every writer hand-off was preceded by the new writer reading the line
	// (the classic read-modify-migrate pattern).
	ClassMigratory
	// ClassReadWrite: general read-write sharing (everything else).
	ClassReadWrite
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassPrivate:
		return "private"
	case ClassReadOnly:
		return "read-only"
	case ClassProducerConsumer:
		return "producer-consumer"
	case ClassMigratory:
		return "migratory"
	case ClassReadWrite:
		return "read-write"
	default:
		return "unknown"
	}
}

// Bounds of the collector's retained state.
const (
	// DefaultMaxLines bounds the per-line state (mirrors span.DefaultMaxTxns
	// in spirit: sharing-enabled runs cannot grow memory without bound).
	// Lines beyond the bound aggregate into the overflow traffic bucket.
	DefaultMaxLines = 1 << 14
	// DefaultMaxWindows bounds heatmap retention; evicted windows count into
	// DroppedWindows/DroppedAccesses so totals stay conserved.
	DefaultMaxWindows = 256
	// DefaultRegionBytes is the heatmap's address granularity (32 lines of
	// 32 bytes).
	DefaultRegionBytes = 1024
	// heatSlots is the number of distinct regions one heat window can
	// resolve; accesses beyond that count into the window's Overflow.
	heatSlots = 32
	// maskMasters is the number of masters whose word-offset access sets are
	// tracked for false-sharing detection (platforms here have 2–3 cores
	// plus DMA).  Masters beyond it still classify, they just contribute no
	// word evidence.
	maskMasters = 8
)

// Config sizes a Collector.
type Config struct {
	// Masters is the number of bus masters (cores plus the DMA engine).
	Masters int
	// LineBytes is the platform's cache line size.
	LineBytes int
	// Window is the heatmap bucket width in engine cycles (0 selects the
	// platform's metrics default, wired by the builder).
	Window uint64
	// MaxLines / MaxWindows / RegionBytes override the retention bounds
	// (0 selects the defaults above).
	MaxLines    int
	MaxWindows  int
	RegionBytes int
}

// lineState is the per-line lifetime state machine.  It is a flat value
// struct (fixed-size arrays, no pointers) so line creation costs only the
// map insert and the backing-slice growth, and steady-state updates allocate
// nothing.
type lineState struct {
	base uint32
	// readers/writers are master bitmasks (masters >= 64 are not tracked;
	// no supported platform comes close).
	readers, writers uint64
	// readSince marks masters that read the line since the last write, for
	// the migratory hand-off rule.
	readSince  uint64
	lastWriter int16
	// writerChanges counts writer hand-offs; readHandoffs the subset where
	// the new writer had read the line since the previous write.
	writerChanges, readHandoffs uint64
	// masks are per-master word-offset access sets (false-sharing
	// evidence), fed by MemAccess and word-grain bus operations.
	masks   [maskMasters]uint64
	traffic LineTraffic
}

// LineTraffic is the per-line traffic tally.  Misses, Upgrades, WriteBacks
// and WordOps partition the line's BusGrant events, so their sum across all
// lines (plus the overflow bucket) equals the grant total exactly — the
// conservation invariant Summary.Conserved checks.
type LineTraffic struct {
	// Misses counts line fills (RdLine/RdLineX grants).
	Misses uint64 `json:"misses,omitempty"`
	// Upgrades counts address-only ownership upgrades.
	Upgrades uint64 `json:"upgrades,omitempty"`
	// WriteBacks counts full-line writes (WrLine write-backs and the DMA's
	// WrLineInv).
	WriteBacks uint64 `json:"write_backs,omitempty"`
	// WordOps counts word-grain operations (uncached reads/writes, RMWs,
	// Dragon updates).
	WordOps uint64 `json:"word_ops,omitempty"`
	// Invalidations counts snoop hits that invalidated a cached copy of
	// this line; Drains the hits resolved by drain-and-retry; Supplies the
	// hits answered by a cache-to-cache transfer; Converted the hits whose
	// observed op a wrapper rewrote.
	Invalidations uint64 `json:"invalidations,omitempty"`
	Drains        uint64 `json:"drains,omitempty"`
	Supplies      uint64 `json:"supplies,omitempty"`
	Converted     uint64 `json:"converted,omitempty"`
	// SharedOverrides counts wrapper shared-signal overrides attributed to
	// this line via the last-BusComplete latch.
	SharedOverrides uint64 `json:"shared_overrides,omitempty"`
}

func (t *LineTraffic) grants() uint64 {
	return t.Misses + t.Upgrades + t.WriteBacks + t.WordOps
}

func (t *LineTraffic) add(o *LineTraffic) {
	t.Misses += o.Misses
	t.Upgrades += o.Upgrades
	t.WriteBacks += o.WriteBacks
	t.WordOps += o.WordOps
	t.Invalidations += o.Invalidations
	t.Drains += o.Drains
	t.Supplies += o.Supplies
	t.Converted += o.Converted
	t.SharedOverrides += o.SharedOverrides
}

// Cell is one directed communication-matrix entry: traffic that master From
// caused to flow toward (or at) master To.
type Cell struct {
	// Supplies counts cache-to-cache transfers From supplied to To's
	// requests; Drains the drain-and-retries From imposed on To (including
	// the TAG CAM's ISR drains).
	Supplies uint64 `json:"supplies,omitempty"`
	Drains   uint64 `json:"drains,omitempty"`
	// Invalidations counts To's cached copies that From's transactions
	// invalidated; Converted the subset of From's transactions that To's
	// wrapper rewrote (the paper's read-to-write conversion), counted
	// separately so wrapper-induced invalidation traffic is attributable.
	Invalidations uint64 `json:"invalidations,omitempty"`
	Converted     uint64 `json:"converted,omitempty"`
}

func (c *Cell) zero() bool {
	return c.Supplies == 0 && c.Drains == 0 && c.Invalidations == 0 && c.Converted == 0
}

// heatWindow is one sealed (or the open) heatmap bucket.
type heatWindow struct {
	start    uint64
	used     int
	regions  [heatSlots]uint32
	counts   [heatSlots]uint64
	overflow uint64
	total    uint64
}

// Totals are the event-stream tallies the per-line and per-cell counters
// must sum back to.
type Totals struct {
	Grants          uint64 `json:"grants"`
	SnoopHits       uint64 `json:"snoop_hits,omitempty"`
	MemAccesses     uint64 `json:"mem_accesses,omitempty"`
	Invalidations   uint64 `json:"invalidations,omitempty"`
	Drains          uint64 `json:"drains,omitempty"`
	Supplies        uint64 `json:"supplies,omitempty"`
	Converted       uint64 `json:"converted,omitempty"`
	SharedOverrides uint64 `json:"shared_overrides,omitempty"`
	// UnattributedOverrides counts SharedOverride events seen before the
	// master's first BusComplete (none in practice; kept so the override
	// sum is conserved by construction).
	UnattributedOverrides uint64 `json:"unattributed_overrides,omitempty"`
}

// Collector accumulates sharing-pattern state from the coherence event
// stream.  It is not safe for concurrent use (the simulation kernel is
// single-threaded).
type Collector struct {
	lineMask    uint32
	wordsOf     uint32 // words per line
	masters     int
	maxLines    int
	window      uint64
	maxWindows  int
	regionMask  uint32
	regionBytes int

	lines  map[uint32]int
	states []lineState
	// overflowTraffic aggregates lines beyond maxLines so grant counts stay
	// conserved; overflowGrants counts the grants routed there.
	overflowTraffic LineTraffic

	matrix []Cell // masters×masters, row-major [from*masters+to]

	// lastComplete latches each master's most recent completed line base,
	// for SharedOverride attribution (the override fires inside the
	// completion callback, after BusComplete, same cycle).
	lastComplete   []uint32
	lastCompleteOK []bool

	// heat ring: the most recent maxWindows sealed windows plus the open
	// one.  All windows are pre-allocated; sealing copies a value struct.
	ring            []heatWindow
	ringStart       int
	ringLen         int
	cur             heatWindow
	curIdx          uint64
	curOpen         bool
	droppedWindows  uint64
	droppedAccesses uint64

	totals   Totals
	finished bool
}

// NewCollector creates a collector for a platform with cfg.Masters bus
// masters and cfg.LineBytes cache lines.  Zero bounds select the defaults.
func NewCollector(cfg Config) *Collector {
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 32
	}
	if cfg.Masters <= 0 {
		cfg.Masters = 1
	}
	if cfg.Window == 0 {
		cfg.Window = 10_000
	}
	if cfg.MaxLines <= 0 {
		cfg.MaxLines = DefaultMaxLines
	}
	if cfg.MaxWindows <= 0 {
		cfg.MaxWindows = DefaultMaxWindows
	}
	if cfg.RegionBytes <= 0 {
		cfg.RegionBytes = DefaultRegionBytes
	}
	return &Collector{
		lineMask:       ^uint32(cfg.LineBytes - 1),
		wordsOf:        uint32(cfg.LineBytes / 4),
		masters:        cfg.Masters,
		maxLines:       cfg.MaxLines,
		window:         cfg.Window,
		maxWindows:     cfg.MaxWindows,
		regionMask:     ^uint32(cfg.RegionBytes - 1),
		regionBytes:    cfg.RegionBytes,
		lines:          make(map[uint32]int),
		matrix:         make([]Cell, cfg.Masters*cfg.Masters),
		lastComplete:   make([]uint32, cfg.Masters),
		lastCompleteOK: make([]bool, cfg.Masters),
		ring:           make([]heatWindow, cfg.MaxWindows),
	}
}

// line resolves (creating if within bounds) the state for a line base.
// Returns nil when the line bound is exhausted; callers then account into
// the overflow bucket.
func (c *Collector) line(base uint32) *lineState {
	if i, ok := c.lines[base]; ok {
		return &c.states[i]
	}
	if len(c.states) >= c.maxLines {
		return nil
	}
	c.lines[base] = len(c.states)
	c.states = append(c.states, lineState{base: base, lastWriter: -1})
	return &c.states[len(c.states)-1]
}

func (c *Collector) cell(from, to int) *Cell {
	if from < 0 || from >= c.masters || to < 0 || to >= c.masters {
		return nil
	}
	return &c.matrix[from*c.masters+to]
}

func (st *lineState) noteRead(m int) {
	if m < 0 || m >= 64 {
		return
	}
	bit := uint64(1) << uint(m)
	st.readers |= bit
	st.readSince |= bit
}

func (st *lineState) noteWrite(m int) {
	if m < 0 || m >= 64 {
		return
	}
	bit := uint64(1) << uint(m)
	st.writers |= bit
	if st.lastWriter >= 0 && int(st.lastWriter) != m {
		st.writerChanges++
		if st.readSince&bit != 0 {
			st.readHandoffs++
		}
	}
	st.lastWriter = int16(m)
	st.readSince = 0
}

func (st *lineState) noteWords(m int, words uint64) {
	if m < 0 || m >= maskMasters {
		return
	}
	st.masks[m] |= words
}

// class computes the line's final classification.  Every touched line lands
// in exactly one class (the arms are ordered by precedence and the last one
// is unconditional).
func (st *lineState) class() Class {
	touched := st.readers | st.writers
	switch {
	case bits.OnesCount64(touched) <= 1:
		return ClassPrivate
	case st.writers == 0:
		return ClassReadOnly
	case bits.OnesCount64(st.writers) == 1 && st.readers&^st.writers != 0:
		return ClassProducerConsumer
	case bits.OnesCount64(st.writers) >= 2 && st.writerChanges > 0 && st.writerChanges == st.readHandoffs:
		return ClassMigratory
	default:
		return ClassReadWrite
	}
}

// falseSharing reports whether the line's word evidence makes it a
// false-sharing candidate: at least two masters left word-offset evidence,
// their access sets are pairwise disjoint, and somebody wrote — coherence
// traffic without any word actually communicated.
func (st *lineState) falseSharing() bool {
	if st.writers == 0 || bits.OnesCount64(st.readers|st.writers) < 2 {
		return false
	}
	var seen uint64
	masters := 0
	for m := 0; m < maskMasters; m++ {
		mask := st.masks[m]
		if mask == 0 {
			continue
		}
		masters++
		if seen&mask != 0 {
			return false // true word sharing
		}
		seen |= mask
	}
	return masters >= 2
}

// isWriteKind reports whether a granted bus operation writes the line from
// the classifier's point of view.  WriteLine (a write-back of already-owned
// data) is neither a read nor a write access — it is the tail of earlier
// writes — and counts only as traffic.
func isWriteKind(k bus.Kind) bool {
	switch k {
	case bus.ReadLineOwn, bus.Upgrade, bus.WriteWord, bus.RMWWord, bus.UpdateWord, bus.WriteLineInv:
		return true
	default:
		return false
	}
}

// HandleEvent consumes the coherence event stream.  Subscribe it to the
// platform's event sink.  The steady-state path (already-seen lines, open
// heat window) performs no allocation.
func (c *Collector) HandleEvent(r *event.Record) {
	if c == nil {
		return
	}
	switch r.Kind {
	case event.BusGrant:
		c.totals.Grants++
		c.heatNote(r.Cycle, r.Addr)
		base := r.Addr & c.lineMask
		st := c.line(base)
		tr := &c.overflowTraffic
		if st != nil {
			tr = &st.traffic
		}
		k := bus.Kind(r.BusKind)
		switch k {
		case bus.ReadLine, bus.ReadLineOwn:
			tr.Misses++
		case bus.Upgrade:
			tr.Upgrades++
		case bus.WriteLine, bus.WriteLineInv:
			tr.WriteBacks++
		default:
			tr.WordOps++
		}
		if st == nil {
			return
		}
		if k == bus.WriteLine {
			return // write-back: traffic only, not an access
		}
		if isWriteKind(k) {
			st.noteWrite(r.Core)
		} else {
			st.noteRead(r.Core)
		}
		switch k {
		case bus.ReadWord, bus.WriteWord, bus.RMWWord, bus.UpdateWord:
			st.noteWords(r.Core, uint64(1)<<c.wordIndex(r.Addr))
		case bus.WriteLineInv:
			// A full-line write touches every word.
			st.noteWords(r.Core, (uint64(1)<<c.wordsOf)-1)
		}
	case event.MemAccess:
		c.totals.MemAccesses++
		if st := c.line(r.Addr & c.lineMask); st != nil {
			// The word-granular record carries the true access direction —
			// a write-allocate miss fills with a plain read-line grant, so
			// without it silent write hits behind the fill would classify the
			// line read-only.
			if r.Write {
				st.noteWrite(r.Core)
			} else {
				st.noteRead(r.Core)
			}
			st.noteWords(r.Core, uint64(1)<<c.wordIndex(r.Addr))
		}
	case event.SnoopHit:
		c.totals.SnoopHits++
		st := c.line(r.Addr & c.lineMask)
		tr := &c.overflowTraffic
		if st != nil {
			tr = &st.traffic
		}
		if r.Inval {
			tr.Invalidations++
			c.totals.Invalidations++
			if cell := c.cell(r.Peer, r.Core); cell != nil {
				cell.Invalidations++
			}
		}
		if r.Supply {
			tr.Supplies++
			c.totals.Supplies++
			if cell := c.cell(r.Core, r.Peer); cell != nil {
				cell.Supplies++
			}
		}
		if r.Flush {
			tr.Drains++
			c.totals.Drains++
			if cell := c.cell(r.Core, r.Peer); cell != nil {
				cell.Drains++
			}
		}
		if r.Converted {
			tr.Converted++
			c.totals.Converted++
			if cell := c.cell(r.Peer, r.Core); cell != nil {
				cell.Converted++
			}
		}
	case event.StateChange:
		// A transition into a dirty state is exact write evidence: store
		// hits on a write-back cache produce no bus transaction, so without
		// this a line filled by a read and then silently written would
		// classify read-only (its eventual write-back is traffic, not an
		// access).  Snooping only moves lines *out of* dirty states (or
		// between them, e.g. M→O on a supply), so the guard on the old state
		// never attributes a write to a snooper.
		if r.New.Dirty() && !r.Old.Dirty() {
			if st := c.line(r.Addr & c.lineMask); st != nil {
				st.noteWrite(r.Core)
			}
		}
	case event.BusComplete:
		if r.Core >= 0 && r.Core < c.masters {
			c.lastComplete[r.Core] = r.Addr & c.lineMask
			c.lastCompleteOK[r.Core] = true
		}
	case event.SharedOverride:
		c.totals.SharedOverrides++
		if r.Core >= 0 && r.Core < c.masters && c.lastCompleteOK[r.Core] {
			tr := &c.overflowTraffic
			if st := c.line(c.lastComplete[r.Core]); st != nil {
				tr = &st.traffic
			}
			tr.SharedOverrides++
		} else {
			c.totals.UnattributedOverrides++
		}
	}
}

func (c *Collector) wordIndex(addr uint32) uint32 {
	return (addr &^ c.lineMask) >> 2
}

// heatNote counts one granted access into the open window, sealing and
// rotating windows as the cycle crosses bucket boundaries.
func (c *Collector) heatNote(cycle uint64, addr uint32) {
	idx := cycle / c.window
	if !c.curOpen {
		c.cur = heatWindow{start: idx * c.window}
		c.curIdx = idx
		c.curOpen = true
	} else if idx != c.curIdx {
		c.sealWindow()
		c.cur = heatWindow{start: idx * c.window}
		c.curIdx = idx
	}
	c.cur.total++
	region := addr & c.regionMask
	for i := 0; i < c.cur.used; i++ {
		if c.cur.regions[i] == region {
			c.cur.counts[i]++
			return
		}
	}
	if c.cur.used < heatSlots {
		c.cur.regions[c.cur.used] = region
		c.cur.counts[c.cur.used] = 1
		c.cur.used++
		return
	}
	c.cur.overflow++
}

// sealWindow pushes the open window onto the ring, evicting (and counting)
// the oldest when retention is full.
func (c *Collector) sealWindow() {
	if c.cur.total == 0 {
		return
	}
	if c.ringLen == c.maxWindows {
		c.droppedWindows++
		c.droppedAccesses += c.ring[c.ringStart].total
		c.ringStart = (c.ringStart + 1) % c.maxWindows
		c.ringLen--
	}
	c.ring[(c.ringStart+c.ringLen)%c.maxWindows] = c.cur
	c.ringLen++
}

// Finish seals the open heat window.  The platform calls it once after the
// run; further events would open a new window.  Idempotent.
func (c *Collector) Finish() {
	if c == nil || c.finished {
		return
	}
	c.finished = true
	if c.curOpen {
		c.sealWindow()
		c.curOpen = false
	}
}
