package bus

import "testing"

// ringAddrs lists the queued entries' addresses from head to tail.
func ringAddrs(q *pendingRing) []uint32 {
	out := make([]uint32, q.len())
	for i := range out {
		out[i] = q.at(i).txn.Addr
	}
	return out
}

func wantRing(t *testing.T, step string, q *pendingRing, want ...uint32) {
	t.Helper()
	got := ringAddrs(q)
	if len(got) != len(want) {
		t.Fatalf("%s: ring holds %v, want %v", step, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: ring holds %v, want %v", step, got, want)
		}
	}
}

func entry(addr uint32) pending { return pending{txn: &Transaction{Addr: addr}} }

// TestPendingRingWrap drives the masked ring indices across the wrap: a
// pushFront at head 0 wraps the head to the last slot, an insertAt shifts
// entries across the wrap, and grow with a wrapped head unrolls the entries
// in queue order into a power-of-two buffer.
func TestPendingRingWrap(t *testing.T) {
	var q pendingRing
	q.pushBack(entry(1))
	if q.head != 0 {
		t.Fatalf("head %d after the first pushBack, want 0", q.head)
	}
	q.pushFront(entry(0))
	if q.head != len(q.buf)-1 {
		t.Fatalf("pushFront at head 0 left head %d, want the last slot %d", q.head, len(q.buf)-1)
	}
	wantRing(t, "pushFront at head 0", &q, 0, 1)

	// The head sits in the last slot, so index 1 is slot 0: inserting there
	// shifts the later entries across the wrap and fills the ring.
	for a := uint32(2); a < 7; a++ {
		q.pushBack(entry(a))
	}
	q.insertAt(1, entry(100))
	wantRing(t, "insertAt across the wrap", &q, 0, 100, 1, 2, 3, 4, 5, 6)
	if q.len() != len(q.buf) {
		t.Fatalf("ring holds %d of %d slots, want it full", q.len(), len(q.buf))
	}

	// A full ring with a wrapped head grows on the next push.
	head, capBefore := q.head, len(q.buf)
	if head == 0 {
		t.Fatal("head did not wrap before grow")
	}
	q.pushFront(entry(99))
	if len(q.buf) != 2*capBefore || len(q.buf)&(len(q.buf)-1) != 0 {
		t.Fatalf("grow left capacity %d, want %d", len(q.buf), 2*capBefore)
	}
	wantRing(t, "grow with a wrapped head", &q, 99, 0, 100, 1, 2, 3, 4, 5, 6)

	for _, want := range []uint32{99, 0, 100, 1} {
		if got := q.popFront().txn.Addr; got != want {
			t.Fatalf("popFront = %d, want %d", got, want)
		}
	}
	q.insertAt(q.len(), entry(7))
	wantRing(t, "insertAt at the tail", &q, 2, 3, 4, 5, 6, 7)
}
