package bus

// pendingRing is a growable ring buffer of pending requests — the per-master
// request queue.  The shape matters for the hot loop: an ARTRY puts the
// aborted transaction back at the *head* of its master's queue, and with a
// plain slice that re-prepend copied the whole queue every retry (O(n) per
// ARTRY, fresh garbage each time).  The ring makes pushFront/popFront O(1)
// with no steady-state allocation: the backing array grows to the high-water
// mark of queued work and is reused forever after.  The capacity is always a
// power of two, so indices wrap with a mask rather than a modulo.
type pendingRing struct {
	buf  []pending
	head int
	n    int
}

func (q *pendingRing) len() int { return q.n }

// at returns the i-th queued entry (0 = head).  i must be < q.n.
func (q *pendingRing) at(i int) *pending { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

func (q *pendingRing) grow() {
	newCap := 2 * len(q.buf)
	if newCap == 0 {
		newCap = 8
	}
	if newCap&(newCap-1) != 0 {
		panic("bus: pending ring capacity is not a power of two")
	}
	nb := make([]pending, newCap)
	for i := 0; i < q.n; i++ {
		nb[i] = *q.at(i)
	}
	q.buf, q.head = nb, 0
}

func (q *pendingRing) pushBack(p pending) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = p
	q.n++
}

func (q *pendingRing) pushFront(p pending) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = p
	q.n++
}

func (q *pendingRing) popFront() pending {
	p := *q.at(0)
	*q.at(0) = pending{} // drop references so completed work is collectable
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return p
}

// insertAt places p at index i (0 <= i <= n), shifting later entries back by
// one slot.  SubmitFlush uses it to slot a snoop push behind the retried head
// of a queue; i is bounded by the retry run length, so the shift is short.
func (q *pendingRing) insertAt(i int, p pending) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.n++
	for j := q.n - 1; j > i; j-- {
		*q.at(j) = *q.at(j - 1)
	}
	*q.at(i) = p
}

// linePool recycles the line-fill buffers the bus hands out as Result.Data
// (cache-to-cache supplies and memory line reads).  Ownership contract: a
// pooled buffer is valid only until the completion callback (and observers)
// return — the bus reclaims it immediately after, so any consumer that
// retains fill data must copy it out (cache.Install and the DMA engine
// already do).  All platforms in a run share one line size, so in steady
// state get never allocates; the pool depth tracks the number of tenures
// simultaneously in flight (two in pipelined mode).
type linePool struct {
	free [][]uint32
}

func (lp *linePool) get(words int) []uint32 {
	for n := len(lp.free); n > 0; n = len(lp.free) {
		buf := lp.free[n-1]
		lp.free[n-1] = nil
		lp.free = lp.free[:n-1]
		if cap(buf) >= words {
			return buf[:words]
		}
		// Undersized leftover from a differently-configured line: drop it.
	}
	return make([]uint32, words)
}

func (lp *linePool) put(buf []uint32) {
	if buf != nil {
		lp.free = append(lp.free, buf)
	}
}
