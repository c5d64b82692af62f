package bt

import (
	"testing"
	"unsafe"
)

// TestPeerSize pins the per-connection state a swarm peer pays once per
// neighbour: a peer stays within 240 bytes, 144 of them its two rate
// estimators of five per-tick sums each. A field that grows one fails
// here rather than silently moving every peer into a larger size class.
func TestPeerSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(peer{}); got > 240 {
		t.Errorf("peer is %d bytes, want at most 240", got)
	}
	if got := unsafe.Sizeof(RateEstimator{}); got > 72 {
		t.Errorf("RateEstimator is %d bytes, want at most 72", got)
	}
}
