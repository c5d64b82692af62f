//go:build !race

package bt

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestRateWindowDoesNotAllocate: an estimator that starts empty (a new
// peer connection) and fills and slides a full 20 s window of Add +
// Rate at 50 samples/s allocates nothing: its window is five per-tick
// sums held by value. The slice-backed estimator grew its slice by
// doubling here on every new connection. (The race detector's
// instrumentation allocates, hence the build tag.)
func TestRateWindowDoesNotAllocate(t *testing.T) {
	var r RateEstimator
	now := sim.Time(0)
	slide := func() {
		r = RateEstimator{}
		for i := 0; i < 2*int(rateWindow/(20*time.Millisecond)); i++ {
			r.Add(now, tickIdx(now), 16384)
			if r.Rate(now, tickIdx(now)) <= 0 {
				t.Fatal("rate should be positive while sliding")
			}
			now = now.Add(20 * time.Millisecond)
		}
	}
	if n := testing.AllocsPerRun(10, slide); n != 0 {
		t.Errorf("slide a 20 s window: %v allocs, want 0", n)
	}
}
