package memory

import "math/bits"

const (
	// pageShift sizes the store's pages at 4 KiB (1024 words).
	pageShift = 12
	pageWords = 1 << (pageShift - 2)
)

// page is one 4 KiB span of words plus a written bit per word.
type page struct {
	words   [pageWords]uint32
	written [pageWords / 64]uint64
}

// Words is a sparse word store: 4 KiB pages allocated on first write, a
// one-entry cache of the last page looked up, and a written bit per word.
// It backs both Memory and the platform's golden model, so per-access
// lookups hash at most once per page change rather than once per word.
// The zero value is an empty store ready to use.
//
// A word is "written" from Store until Clear.  Load of a word never
// written returns 0.
type Words struct {
	pages map[uint32]*page
	// last caches the page for lastKey (nil when that page does not exist);
	// lastOK reports whether the cache holds anything yet.
	last    *page
	lastKey uint32
	lastOK  bool
	n       int
}

func wordIndex(addr uint32) (int, uint64) {
	i := int(addr>>2) & (pageWords - 1)
	return i, 1 << uint(i&63)
}

func (s *Words) lookup(key uint32) *page {
	if s.lastOK && key == s.lastKey {
		return s.last
	}
	pg := s.pages[key]
	s.last, s.lastKey, s.lastOK = pg, key, true
	return pg
}

// Load returns the word at byte address addr (0 if never written).
func (s *Words) Load(addr uint32) uint32 {
	pg := s.lookup(addr >> pageShift)
	if pg == nil {
		return 0
	}
	i, _ := wordIndex(addr)
	return pg.words[i]
}

// Store sets the word at addr to v and marks it written, even when v is 0.
func (s *Words) Store(addr, v uint32) {
	key := addr >> pageShift
	pg := s.lookup(key)
	if pg == nil {
		if s.pages == nil {
			s.pages = make(map[uint32]*page)
		}
		pg = new(page)
		s.pages[key] = pg
		s.last = pg
	}
	i, bit := wordIndex(addr)
	if w := &pg.written[i>>6]; *w&bit == 0 {
		*w |= bit
		s.n++
	}
	pg.words[i] = v
}

// Clear zeroes the word at addr and drops it from the written set.
func (s *Words) Clear(addr uint32) {
	pg := s.lookup(addr >> pageShift)
	if pg == nil {
		return
	}
	i, bit := wordIndex(addr)
	if w := &pg.written[i>>6]; *w&bit != 0 {
		*w &^= bit
		s.n--
	}
	pg.words[i] = 0
}

// Len returns the number of written words.
func (s *Words) Len() int { return s.n }

// Range calls fn for every written word, in no particular order.
func (s *Words) Range(fn func(addr, v uint32)) {
	for k, pg := range s.pages {
		for i, w := range pg.written {
			for ; w != 0; w &= w - 1 {
				j := i<<6 | bits.TrailingZeros64(w)
				fn(k<<pageShift|uint32(j)<<2, pg.words[j])
			}
		}
	}
}
