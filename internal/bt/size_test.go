package bt

import (
	"testing"
	"unsafe"

	"repro/internal/vnet"
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

// sizeClass rounds an object's size up to the runtime's size class, the
// bytes its allocation takes (Go's small classes up to 512 B).
func sizeClass(size uintptr) uintptr {
	for _, class := range []uintptr{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256, 288, 320, 352, 384, 416, 448, 480, 512} {
		if size <= class {
			return class
		}
	}
	panic("sizeClass: past the small classes")
}

// TestConnectionEndBytes pins the heap one swarm connection end holds
// for its life: the peer (240 B), its Bitfield (64 B, its bits inline up
// to 128 pieces) and the vnet.Conn (64 B), each rounded to its size
// class, 368 B. The end gives its receive state back to the network's
// pool when attach switches it to push delivery, so that state is not
// counted. It was 432 B while a Conn held its inbox and handshake Cond.
func TestConnectionEndBytes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	got := sizeClass(unsafe.Sizeof(peer{})) + sizeClass(unsafe.Sizeof(Bitfield{})) + sizeClass(unsafe.Sizeof(vnet.Conn{}))
	if got > 368 {
		t.Errorf("a connection end holds %d bytes, want at most 368", got)
	}
}
