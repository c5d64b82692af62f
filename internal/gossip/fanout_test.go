package gossip

import (
	"math/rand"
	"slices"
	"testing"
)

// checkFanoutPrefix draws fanoutPrefix and rand.Perm from two sources
// on one seed and requires the same fanout prefix and the same next
// Int63 afterwards: every gossip digest depends on both, since the
// rounds after this one draw from the same kernel source.
func checkFanoutPrefix(t *testing.T, seed int64, n, fanout int, buf []int) []int {
	t.Helper()
	ref := rand.New(rand.NewSource(seed))
	got := rand.New(rand.NewSource(seed))
	want := ref.Perm(n)[:min(fanout, n)]
	buf = fanoutPrefix(got, buf, n, fanout)
	if !slices.Equal(buf, want) {
		t.Fatalf("seed %d, n %d, fanout %d: prefix %v, Perm's %v", seed, n, fanout, buf, want)
	}
	if a, b := got.Int63(), ref.Int63(); a != b {
		t.Fatalf("seed %d, n %d, fanout %d: next Int63 %d, after Perm %d", seed, n, fanout, a, b)
	}
	return buf
}

// TestFanoutPrefixMatchesPerm: for every membership size up to 1 100
// (past the 1 024-node gossip cells) and every fanout up to 9, plus a
// fanout larger than the membership, the prefix draw returns Perm's
// first fanout entries and consumes exactly Perm's draws. The scratch
// buffer is carried across calls, as Node.perm is across rounds, so a
// stale entry left by a longer draw would show.
func TestFanoutPrefixMatchesPerm(t *testing.T) {
	var buf []int
	for _, seed := range []int64{1, 2, 0x5eed} {
		for n := 0; n <= 1100; n++ {
			for fanout := 0; fanout <= min(n, 9); fanout++ {
				buf = checkFanoutPrefix(t, seed, n, fanout, buf)
			}
			buf = checkFanoutPrefix(t, seed, n, n+1, buf)
			buf = checkFanoutPrefix(t, seed, n, n+100, buf)
		}
	}
}

// FuzzFanoutPrefix runs the same check on arbitrary (seed, n, fanout).
func FuzzFanoutPrefix(f *testing.F) {
	for _, c := range []struct {
		seed      int64
		n, fanout uint16
	}{
		{1, 0, 0}, {1, 0, 3}, {1, 1, 0}, {1, 1, 1}, {1, 1, 2},
		{2, 9, 9}, {2, 10, 9}, {3, 256, 3}, {3, 1024, 3}, {-7, 1100, 9},
	} {
		f.Add(c.seed, c.n, c.fanout)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, fanout uint16) {
		// Bounded so one input stays cheap; the prefix logic does not
		// change with size past a few slots.
		checkFanoutPrefix(t, seed, int(n%4096), int(fanout%64), nil)
	})
}
