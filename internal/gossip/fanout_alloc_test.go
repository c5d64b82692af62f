//go:build !race

package gossip

import (
	"math/rand"
	"testing"
)

// TestFanoutPrefixDoesNotAllocate: once Node.perm holds fanout slots, a
// round's draw over a 1 024-node membership allocates nothing, where
// rand.Perm allocated 8 KiB.
func TestFanoutPrefixDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := fanoutPrefix(rng, nil, 1024, 3)
	if got := testing.AllocsPerRun(100, func() { buf = fanoutPrefix(rng, buf, 1024, 3) }); got != 0 {
		t.Errorf("warm draw: %v allocs, want 0", got)
	}
}
