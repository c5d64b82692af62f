package bt

import (
	"time"

	"repro/internal/sim"
)

// rateWindow is the window of every RateEstimator.
const rateWindow = 20 * time.Second

// RateEstimator measures transfer rate over a sliding window, like the
// mainline client's 20-second rate estimate that drives choking
// decisions. Its samples sit in a FIFO of fixed-size chunks from pool
// (nil allocates), so a filling window never regrows a slice.
type RateEstimator struct {
	head, tail *sampleChunk
	rd, wr     int // read index in head, write index in tail
	n          int // samples within the window
	pool       *chunkPool
	total      int64 // bytes within the window
	first      sim.Time
	started    bool // first activity recorded
}

type rateSample struct {
	at    sim.Time
	bytes int64
}

// sampleChunk holds 15 samples and a link: 248 B, the 256 B size class.
type sampleChunk struct {
	s    [15]rateSample
	next *sampleChunk
}

// chunkPool is a client's free list of sample chunks, like vnet.BoxPool.
type chunkPool struct{ free *sampleChunk }

func (p *chunkPool) get() *sampleChunk {
	if p == nil || p.free == nil {
		return new(sampleChunk)
	}
	ch := p.free
	p.free, ch.next = ch.next, nil
	return ch
}

// put pushes the chain head…tail onto the free list.
func (p *chunkPool) put(head, tail *sampleChunk) {
	if p != nil {
		tail.next, p.free = p.free, head
	}
}

// Add records bytes transferred at instant now. Trimming happens
// before the append so an idle gap that drained the whole window is
// detected here too (not only on a Rate call mid-gap) and restarts
// the warm-up origin.
func (r *RateEstimator) Add(now sim.Time, bytes int64) {
	r.trim(now)
	if !r.started {
		r.started = true
		r.first = now
	}
	if r.tail == nil {
		r.head = r.pool.get()
		r.tail = r.head
	} else if r.wr == len(r.tail.s) {
		r.tail.next = r.pool.get()
		r.tail, r.wr = r.tail.next, 0
	}
	r.tail.s[r.wr] = rateSample{at: now, bytes: bytes}
	r.wr++
	r.n++
	r.total += bytes
}

func (r *RateEstimator) trim(now sim.Time) {
	cutoff := now.Add(-rateWindow)
	for r.n > 0 && r.head.s[r.rd].at < cutoff {
		r.total -= r.head.s[r.rd].bytes
		r.rd++
		r.n--
		if r.rd == len(r.head.s) {
			ch := r.head
			r.head, r.rd = ch.next, 0
			r.pool.put(ch, ch)
		}
	}
	if r.n == 0 {
		// An idle gap drained the whole window (or it was empty): the
		// next activity starts a fresh warm-up, so a resumed transfer
		// is not divided by the full window again.
		r.release()
	}
}

// release empties the window and returns its chunks to the pool.
func (r *RateEstimator) release() {
	if r.head != nil {
		r.pool.put(r.head, r.tail)
	}
	*r = RateEstimator{pool: r.pool, first: r.first}
}

// Rate returns bytes/second over the window ending at now. During
// warm-up — less than a full window since the first recorded activity —
// the divisor is the elapsed time, not the window: dividing by the
// full window would under-report a transfer 2 s into a 20 s window by
// 10×, which feeds choke/unchoke ordering. The warm-up divisor is
// clamped to at least one second so a single block recorded moments
// before a query cannot masquerade as a multi-MB/s peer.
func (r *RateEstimator) Rate(now sim.Time) float64 {
	r.trim(now)
	if r.n == 0 {
		return 0
	}
	span := now.Sub(r.first)
	if span < time.Second {
		span = time.Second
	}
	if span > rateWindow {
		span = rateWindow
	}
	return float64(r.total) / span.Seconds()
}
