package memory

import "testing"

func TestWordsUnwrittenReadsZero(t *testing.T) {
	var s Words
	for _, addr := range []uint32{0, 0x1000, 0xfffffffc} {
		if v := s.Load(addr); v != 0 {
			t.Errorf("unwritten 0x%08x = %d, want 0", addr, v)
		}
	}
	if s.Len() != 0 || len(s.pages) != 0 {
		t.Fatalf("reads created state: len %d, pages %d", s.Len(), len(s.pages))
	}
	s.Store(0x2000, 7)
	if v := s.Load(0x2004); v != 0 {
		t.Errorf("unwritten neighbour on a live page = %d, want 0", v)
	}
}

// TestWordsZeroStoreStaysWritten: the golden model stores 0 like any other
// value, so the word must stay listed.
func TestWordsZeroStoreStaysWritten(t *testing.T) {
	var s Words
	s.Store(0x100, 5)
	s.Store(0x100, 0)
	s.Store(0x104, 0)
	if s.Len() != 2 {
		t.Fatalf("len %d, want 2", s.Len())
	}
	got := map[uint32]uint32{}
	s.Range(func(a, v uint32) { got[a] = v })
	if len(got) != 2 || got[0x100] != 0 || got[0x104] != 0 {
		t.Fatalf("range = %v, want 0x100 and 0x104 at 0", got)
	}
	s.Clear(0x100)
	s.Clear(0x100)
	s.Clear(0x9000) // absent page
	if s.Len() != 1 {
		t.Fatalf("len after clear %d, want 1", s.Len())
	}
}

func TestWordsPageBoundary(t *testing.T) {
	var s Words
	lo, hi := uint32(0x3ffc), uint32(0x4000) // last word of one page, first of the next
	s.Store(lo, 1)
	s.Store(hi, 2)
	if s.Load(lo) != 1 || s.Load(hi) != 2 {
		t.Fatalf("lo %d hi %d, want 1 2", s.Load(lo), s.Load(hi))
	}
	s.Clear(hi)
	if s.Load(lo) != 1 || s.Len() != 1 {
		t.Fatalf("clearing hi disturbed lo: lo %d len %d", s.Load(lo), s.Len())
	}
	s.Store(hi, 3)
	s.Clear(lo)
	if s.Load(hi) != 3 || s.Len() != 1 {
		t.Fatalf("clearing lo disturbed hi: hi %d len %d", s.Load(hi), s.Len())
	}
	got := map[uint32]uint32{}
	s.Range(func(a, v uint32) { got[a] = v })
	if len(got) != 1 || got[hi] != 3 {
		t.Fatalf("range = %x, want only 0x%x at 3", got, hi)
	}
}

// TestWordsLastPageCacheFollowsCreation: a read that caches a missing page
// must not hide the page a later store creates.
func TestWordsLastPageCacheFollowsCreation(t *testing.T) {
	var s Words
	_ = s.Load(0x5000)
	s.Store(0x5008, 9)
	_ = s.Load(0x1000)
	if v := s.Load(0x5008); v != 9 {
		t.Fatalf("load after page creation = %d, want 9", v)
	}
}

func TestMemoryFootprintCountsNonzero(t *testing.T) {
	m := New()
	m.WriteWord(0x3ffc, 1)
	m.WriteWord(0x4000, 2)
	m.Poke(0x4004, 0)
	if m.Footprint() != 2 {
		t.Fatalf("footprint %d, want 2", m.Footprint())
	}
	m.WriteWord(0x3ffc, 0)
	if m.Footprint() != 1 || m.Peek(0x4000) != 2 {
		t.Fatalf("footprint %d, hi %d after zeroing lo", m.Footprint(), m.Peek(0x4000))
	}
}
