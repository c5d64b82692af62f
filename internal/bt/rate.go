package bt

import (
	"time"

	"repro/internal/sim"
)

// rateWindow is the window of every RateEstimator.
const rateWindow = 20 * time.Second

// rateTicks is how many client ticks a rate window spans.
const rateTicks = int(rateWindow / tick)

// RateEstimator measures transfer rate over a sliding window, like the
// mainline client's 20-second rate estimate that drives choking
// decisions. It keeps one byte sum per client tick: the window at an
// instant in tick k is ticks k−4..k. Its reader, rechoke, runs on the
// tick lattice, where that window is exactly [now − 20 s, now]; off the
// lattice it also holds the samples from the start of tick k−4 to
// now − 20 s.
//
// A tick index k is (now − Client.tickAt) / tick, and the calls of one
// estimator pass non-decreasing instants.
type RateEstimator struct {
	sums    [rateTicks + 1]int64 // bytes of tick i in sums[i % len]
	k       int                  // newest tick in sums
	last    sim.Time             // the newest sample's instant
	first   sim.Time             // first sample since the last restart
	started bool                 // a sample was recorded since the last restart
}

// idle reports whether every sample lies before now's exact window, so
// the estimator reads 0 and the next Add restarts warm-up.
func (r *RateEstimator) idle(now sim.Time) bool {
	return !r.started || r.last < now.Add(-rateWindow)
}

// Add records bytes transferred at instant now, in tick k. After an
// idle gap that left no sample within the window, it restarts the
// window and the warm-up origin, so a resumed transfer is not divided
// by the full window again.
func (r *RateEstimator) Add(now sim.Time, k int, bytes int64) {
	if r.idle(now) {
		*r = RateEstimator{k: k, first: now, started: true}
	}
	for i := max(r.k+1, k-rateTicks); i <= k; i++ {
		r.sums[i%len(r.sums)] = 0
	}
	r.k = k
	r.sums[k%len(r.sums)] += bytes
	r.last = now
}

// Rate returns bytes/second over the window ending at now, in tick k.
// During warm-up — less than a full window since the first recorded
// activity — the divisor is the elapsed time, not the window: dividing
// by the full window would under-report a transfer 2 s into a 20 s
// window by 10×, which feeds choke/unchoke ordering. The warm-up
// divisor is clamped to at least one second so a single block recorded
// moments before a query cannot masquerade as a multi-MB/s peer.
func (r *RateEstimator) Rate(now sim.Time, k int) float64 {
	if r.idle(now) {
		return 0
	}
	var total int64
	for i := max(k-rateTicks, 0); i <= r.k; i++ {
		total += r.sums[i%len(r.sums)]
	}
	span := now.Sub(r.first)
	if span < time.Second {
		span = time.Second
	}
	if span > rateWindow {
		span = rateWindow
	}
	return float64(total) / span.Seconds()
}
