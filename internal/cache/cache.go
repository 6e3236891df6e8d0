// Package cache models a set-associative write-back data cache with a
// snooping controller, parameterised by the coherence protocol state machine
// of the host processor (package coherence).
//
// The package separates the storage array (Cache) from the bus-mastering
// Controller.  The controller implements the handshake behaviours the paper
// builds on: it ARTRYs transactions that hit one of its dirty lines, queues
// the drain write-back, asks the arbiter for the bus (BOFF), and retires the
// original master's retry only after the drain completes.  A Policy hook —
// implemented by package wrapper — lets the paper's wrappers convert
// observed reads into writes and override the shared signal.
package cache

import (
	"fmt"
	"math/bits"

	"hetcc/internal/coherence"
)

// Config describes a cache geometry.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
	// LineBytes is the line size (the paper uses 32 bytes = 8 words).
	LineBytes int
}

// Validate checks the geometry is consistent.
func (c Config) Validate() error {
	if c.LineBytes < 4 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two of at least 4 bytes", c.LineBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: ways must be positive, got %d", c.Ways)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*line (%d)", c.SizeBytes, c.LineBytes*c.Ways)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// WordsPerLine returns the line size in 32-bit words.
func (c Config) WordsPerLine() int { return c.LineBytes / 4 }

// LineAddr returns the line-aligned base of addr.
func (c Config) LineAddr(addr uint32) uint32 {
	return addr &^ uint32(c.LineBytes-1)
}

// Line is one cache line.
type Line struct {
	// Base is the line-aligned address (valid only when State != Invalid).
	Base  uint32
	State coherence.State
	Data  []uint32
	lru   uint64

	// flushPending marks a line whose snoop-triggered drain is queued but
	// not yet completed; further snoops of the line must keep ARTRYing.
	flushPending bool
	// flushNext is the state to enter once the pending drain completes.
	flushNext coherence.State
}

// Stats collects cache and controller event counters.
type Stats struct {
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64
	WriteMisses uint64
	Upgrades    uint64
	Evictions   uint64
	EvictionWBs uint64

	SnoopHits          uint64
	SnoopInvalidations uint64
	SnoopFlushes       uint64
	SnoopSupplies      uint64
	SnoopDowngrades    uint64
	SnoopUpdates       uint64

	CleanOps uint64
	InvalOps uint64
}

// Cache is the storage array.  It has no timing of its own; the Controller
// and the CPU model account for cycles.
type Cache struct {
	cfg   Config
	proto *coherence.Protocol
	// lines holds every way of every set, set-major: set i is
	// lines[i*Ways : (i+1)*Ways].  Each Line's Data is a capped window of
	// one shared word slab.
	lines []Line
	// lineShift and setMask turn an address into its set without dividing.
	lineShift uint
	setMask   uint32
	tick      uint64
	stats     Stats
}

// New builds an empty cache for the given protocol.  The protocol may not
// be nil: coherence-less processors (ARM920T) still carry a cache, modelled
// as MEI with snooping performed externally by package snooplogic (its own
// controller never sees foreign bus traffic).
func New(cfg Config, proto *coherence.Protocol) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if proto == nil {
		return nil, fmt.Errorf("cache: nil protocol")
	}
	n, wpl := cfg.Sets()*cfg.Ways, cfg.WordsPerLine()
	lines := make([]Line, n)
	words := make([]uint32, n*wpl)
	for i := range lines {
		lines[i].Data = words[i*wpl : (i+1)*wpl : (i+1)*wpl]
	}
	return &Cache{
		cfg:       cfg,
		proto:     proto,
		lines:     lines,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:   uint32(cfg.Sets() - 1),
	}, nil
}

// Config returns the geometry.
func (c *Cache) Config() Config { return c.cfg }

// Protocol returns the coherence state machine in use.
func (c *Cache) Protocol() *coherence.Protocol { return c.proto }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// set returns the ways of addr's set.
func (c *Cache) set(addr uint32) []Line {
	ways := c.cfg.Ways
	i := int(addr>>c.lineShift&c.setMask) * ways
	return c.lines[i : i+ways : i+ways]
}

// Lookup returns the line holding addr, or nil.
func (c *Cache) Lookup(addr uint32) *Line {
	base := c.cfg.LineAddr(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].State != coherence.Invalid && set[i].Base == base {
			return &set[i]
		}
	}
	return nil
}

// Touch refreshes the LRU position of line.
func (c *Cache) Touch(l *Line) {
	c.tick++
	l.lru = c.tick
}

// Victim returns the way that a fill of addr would replace: an invalid way
// if one exists, else the least recently used.  Lines with a pending flush
// are never chosen.
func (c *Cache) Victim(addr uint32) *Line {
	set := c.set(addr)
	var victim *Line
	for i := range set {
		l := &set[i]
		if l.flushPending {
			continue
		}
		if l.State == coherence.Invalid {
			return l
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	return victim
}

// Install fills the line for addr with data in the given state, returning
// the installed line.  The caller must have evicted the victim first.
func (c *Cache) Install(addr uint32, data []uint32, state coherence.State, into *Line) *Line {
	base := c.cfg.LineAddr(addr)
	into.Base = base
	into.State = state
	copy(into.Data, data)
	into.flushPending = false
	c.Touch(into)
	return into
}

// WordIndex returns the index of addr's word within its line.
func (c *Cache) WordIndex(addr uint32) int {
	return int(addr&uint32(c.cfg.LineBytes-1)) / 4
}

// ResidentLines returns the base addresses of all valid lines (for the TAG
// CAM mirror property tests and the snoop logic).
func (c *Cache) ResidentLines() []uint32 {
	var out []uint32
	for i := range c.lines {
		if c.lines[i].State != coherence.Invalid {
			out = append(out, c.lines[i].Base)
		}
	}
	return out
}

// StateOf returns the coherence state of the line holding addr (Invalid if
// absent).
func (c *Cache) StateOf(addr uint32) coherence.State {
	if l := c.Lookup(addr); l != nil {
		return l.State
	}
	return coherence.Invalid
}

// PeekWord returns the cached word at addr and whether it is resident.
func (c *Cache) PeekWord(addr uint32) (uint32, bool) {
	l := c.Lookup(addr)
	if l == nil {
		return 0, false
	}
	return l.Data[c.WordIndex(addr)], true
}
