package sim

import (
	"math/bits"
	"math/rand"
	"testing"
)

// checkRing compares c with the slice FIFO model: the same length, the
// same items in order from the head, every vacated slot zero (so the
// ring pins no payload it has handed out), and storage that grew from
// one slot by doubling only when full — the smallest power of two that
// held the deepest the channel has been.
func checkRing(t *testing.T, c *Chan[*int], model []*int, deepest int) {
	t.Helper()
	if c.Len() != len(model) {
		t.Fatalf("Len %d, model %d", c.Len(), len(model))
	}
	size := len(c.buf)
	want := 0
	if deepest > 0 {
		want = 1 << bits.Len(uint(deepest-1))
	}
	if size != want {
		t.Fatalf("ring of %d slots after a depth of %d, want %d", size, deepest, want)
	}
	for i, v := range c.buf {
		off := (i - int(c.head) + size) % size
		switch {
		case off < int(c.n) && v != model[off]:
			t.Fatalf("slot %d (item %d): %p, model %p", i, off, v, model[off])
		case off >= int(c.n) && v != nil:
			t.Fatalf("vacated slot %d still holds %p", i, v)
		}
	}
}

// TestChanRingMatchesSlice drives Chan's ring with TrySend, TryRecv and
// Close against a slice FIFO. The first part walks the growth 1 → 2 →
// 4 → … → 64 with the head at every offset of a full ring, so the copy
// that unrolls the ring starts from each position; the second runs
// seeded op streams on unbounded and bounded channels. Each op is
// followed by checkRing.
func TestChanRingMatchesSlice(t *testing.T) {
	k := New(1)
	next := 0
	item := func() *int { next++; v := next; return &v }

	for size := 1; size <= 64; size *= 2 {
		for head := 0; head < size; head++ {
			c := NewChan[*int](k, 0)
			var model []*int
			push := func() {
				v := item()
				if !c.TrySend(v) {
					t.Fatalf("size %d head %d: TrySend refused on an unbounded chan", size, head)
				}
				model = append(model, v)
			}
			pop := func() {
				v, ok := c.TryRecv()
				if !ok || v != model[0] {
					t.Fatalf("size %d head %d: TryRecv %p %v, model %p", size, head, v, ok, model[0])
				}
				model = model[1:]
			}
			for range size {
				push()
			}
			for range head {
				pop()
				push()
			}
			checkRing(t, c, model, size)
			if int(c.head) != head || int(c.n) != size {
				t.Fatalf("full ring of %d: head %d n %d, want head %d", size, c.head, c.n, head)
			}
			push() // grows to 2·size, unrolling from head
			checkRing(t, c, model, size+1)
			for len(model) > 0 {
				pop()
				checkRing(t, c, model, size+1)
			}
		}
	}

	for seed := int64(1); seed <= 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 0
		if seed%2 == 0 {
			capacity = 1 + rng.Intn(6)
		}
		c := NewChan[*int](k, capacity)
		var model []*int
		deepest := 0
		closed := false
		for op := 0; op < 200; op++ {
			switch r := rng.Intn(100); {
			case r < 55:
				v := item()
				accept := !closed && (capacity == 0 || len(model) < capacity)
				if got := c.TrySend(v); got != accept {
					t.Fatalf("seed %d op %d: TrySend %v, model %v", seed, op, got, accept)
				}
				if accept {
					model = append(model, v)
					deepest = max(deepest, len(model))
				}
			case r < 99:
				v, ok := c.TryRecv()
				if ok != (len(model) > 0) {
					t.Fatalf("seed %d op %d: TryRecv ok %v with %d queued", seed, op, ok, len(model))
				}
				if ok {
					if v != model[0] {
						t.Fatalf("seed %d op %d: TryRecv %p, model %p", seed, op, v, model[0])
					}
					model = model[1:]
				}
			default:
				c.Close()
				closed = true
			}
			if c.closed != closed {
				t.Fatalf("seed %d op %d: closed %v, model %v", seed, op, c.closed, closed)
			}
			checkRing(t, c, model, deepest)
		}
	}
}
