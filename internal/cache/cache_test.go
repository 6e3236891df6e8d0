package cache

import (
	"testing"
	"testing/quick"

	"hetcc/internal/coherence"
)

func cfg32k() Config  { return Config{SizeBytes: 32 * 1024, Ways: 8, LineBytes: 32} }
func cfgTiny() Config { return Config{SizeBytes: 256, Ways: 2, LineBytes: 32} } // 4 sets

func TestConfigValidate(t *testing.T) {
	good := []Config{
		cfg32k(),
		{SizeBytes: 8 * 1024, Ways: 4, LineBytes: 32},
		{SizeBytes: 16 * 1024, Ways: 64, LineBytes: 32},
		{SizeBytes: 256, Ways: 1, LineBytes: 32},
		{SizeBytes: 4096, Ways: 2, LineBytes: 64},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", c, err)
		}
	}
	bad := []Config{
		{},
		{SizeBytes: 100, Ways: 1, LineBytes: 32}, // not divisible
		{SizeBytes: 1024, Ways: 3, LineBytes: 32},    // hmm: 1024/(96) not integer
		{SizeBytes: 1024, Ways: 1, LineBytes: 10},    // line not mult of 4
		{SizeBytes: 96 * 32, Ways: 1, LineBytes: 32}, // 96 sets: not a power of two
		{SizeBytes: -1024, Ways: 2, LineBytes: 32},   // negative
		{SizeBytes: 1024, Ways: 0, LineBytes: 32},    // zero ways
		{SizeBytes: 12288, Ways: 4, LineBytes: 48},   // 64 sets, but line not a power of two
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v accepted", c)
		}
	}
}

// TestLineDataSlabIsolated: every line's Data is a window of one shared
// word slab, capped so that growing one line reallocates instead of
// writing into its neighbour.
func TestLineDataSlabIsolated(t *testing.T) {
	c, err := New(cfgTiny(), coherence.New(coherence.MESI))
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.lines {
		l := &c.lines[i]
		if len(l.Data) != 8 || cap(l.Data) != 8 {
			t.Fatalf("line %d: len %d cap %d, want 8/8", i, len(l.Data), cap(l.Data))
		}
		for w := range l.Data {
			l.Data[w] = uint32(i)<<8 | uint32(w)
		}
	}
	grown := append(c.lines[0].Data, 0xdead)
	grown[0] = 0xbeef
	for i := range c.lines {
		for w, v := range c.lines[i].Data {
			if want := uint32(i)<<8 | uint32(w); v != want {
				t.Fatalf("line %d word %d = %#x after append to line 0, want %#x", i, w, v, want)
			}
		}
	}
}

// TestSetIndexMatchesDivision: the shift-and-mask set index picks the set
// the (addr / LineBytes) % Sets formula names.
func TestSetIndexMatchesDivision(t *testing.T) {
	for _, cfg := range []Config{cfg32k(), cfgTiny(), {SizeBytes: 4096, Ways: 2, LineBytes: 64}} {
		c, err := New(cfg, coherence.New(coherence.MESI))
		if err != nil {
			t.Fatal(err)
		}
		f := func(addr uint32) bool {
			want := int(addr/uint32(cfg.LineBytes)%uint32(cfg.Sets())) * cfg.Ways
			return &c.set(addr)[0] == &c.lines[want]
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	}
}

func TestConfigDerived(t *testing.T) {
	c := cfg32k()
	if c.Sets() != 128 {
		t.Errorf("sets %d, want 128", c.Sets())
	}
	if c.WordsPerLine() != 8 {
		t.Errorf("words/line %d, want 8", c.WordsPerLine())
	}
	if c.LineAddr(0x1237) != 0x1220 {
		t.Errorf("line addr %#x, want 0x1220", c.LineAddr(0x1237))
	}
}

func mustCache(t *testing.T, cfg Config, k coherence.Kind) *Cache {
	t.Helper()
	c, err := New(cfg, coherence.New(k))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestInstallLookup(t *testing.T) {
	c := mustCache(t, cfgTiny(), coherence.MESI)
	data := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	v := c.Victim(0x1000)
	c.Install(0x1000, data, coherence.Exclusive, v)
	l := c.Lookup(0x1004)
	if l == nil || l.State != coherence.Exclusive {
		t.Fatal("installed line not found")
	}
	if w, ok := c.PeekWord(0x1008); !ok || w != 3 {
		t.Fatalf("peek = %d,%v want 3", w, ok)
	}
	if c.StateOf(0x2000) != coherence.Invalid {
		t.Fatal("phantom line")
	}
}

func TestVictimPrefersInvalid(t *testing.T) {
	c := mustCache(t, cfgTiny(), coherence.MESI)
	data := make([]uint32, 8)
	v1 := c.Victim(0x1000)
	c.Install(0x1000, data, coherence.Modified, v1)
	v2 := c.Victim(0x2000) // same set (4 sets * 32B = stride 128; 0x1000 and 0x2000 map to set 0)
	if v2 == v1 {
		t.Fatal("victim chose valid line while an invalid way existed")
	}
}

func TestVictimLRU(t *testing.T) {
	c := mustCache(t, cfgTiny(), coherence.MESI)
	data := make([]uint32, 8)
	// Fill both ways of set 0 (stride = sets*lineBytes = 128).
	a := c.Victim(0x0)
	c.Install(0x0, data, coherence.Exclusive, a)
	b := c.Victim(0x80)
	c.Install(0x80, data, coherence.Exclusive, b)
	// Touch the first line: the second becomes LRU.
	c.Touch(c.Lookup(0x0))
	v := c.Victim(0x100)
	if v != b {
		t.Fatal("LRU victim selection wrong")
	}
	// Lines with a pending flush are never victims.
	b.flushPending = true
	v = c.Victim(0x100)
	if v == b {
		t.Fatal("chose flush-pending line as victim")
	}
	a.flushPending = true
	if c.Victim(0x100) != nil {
		t.Fatal("victim available though all ways are draining")
	}
}

func TestResidentLines(t *testing.T) {
	c := mustCache(t, cfgTiny(), coherence.MEI)
	data := make([]uint32, 8)
	for _, addr := range []uint32{0x0, 0x20, 0x40} {
		c.Install(addr, data, coherence.Exclusive, c.Victim(addr))
	}
	if got := len(c.ResidentLines()); got != 3 {
		t.Fatalf("%d resident lines, want 3", got)
	}
}

func TestNewRejectsNilProtocolAndBadConfig(t *testing.T) {
	if _, err := New(cfgTiny(), nil); err == nil {
		t.Error("nil protocol accepted")
	}
	if _, err := New(Config{}, coherence.New(coherence.MEI)); err == nil {
		t.Error("zero config accepted")
	}
}

// TestSetIndexDisjoint: every address maps into exactly one set, and
// lookups never cross sets.
func TestSetIndexDisjoint(t *testing.T) {
	c := mustCache(t, cfgTiny(), coherence.MESI)
	f := func(a, b uint16) bool {
		addrA := uint32(a) * 4
		addrB := uint32(b) * 4
		data := make([]uint32, 8)
		cc := mustCache(t, cfgTiny(), coherence.MESI)
		cc.Install(addrA, data, coherence.Exclusive, cc.Victim(addrA))
		l := cc.Lookup(addrB)
		sameLine := c.Config().LineAddr(addrA) == c.Config().LineAddr(addrB)
		return (l != nil) == sameLine
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordIndex(t *testing.T) {
	c := mustCache(t, cfgTiny(), coherence.MEI)
	for w := 0; w < 8; w++ {
		if got := c.WordIndex(0x1000 + uint32(4*w)); got != w {
			t.Fatalf("word index of +%d = %d", 4*w, got)
		}
	}
}
