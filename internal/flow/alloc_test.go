//go:build !race

package flow

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
)

// TestFlushDoesNotAllocate is the allocation gate of the solver: once a
// flow population exists, marking links dirty and flushing them reuses
// the Model's scratch — the BFS lists, the region and the affected set —
// so a flush allocates nothing, however many components it spans. A
// flow whose rate moves is rescheduled in place, which allocates
// nothing either.
func TestFlushDoesNotAllocate(t *testing.T) {
	for _, window := range []time.Duration{0, 50 * time.Millisecond} {
		t.Run(fmt.Sprintf("window=%s", window), func(t *testing.T) {
			k := sim.New(1)
			m := NewWithConfig(k, Config{Window: window})
			// Four components of two pipes each; every component carries
			// single-pipe and two-pipe flows, so the incremental solver
			// has bottlenecks on both pipes to re-level.
			var pipes []*netem.Pipe
			for i := 0; i < 8; i++ {
				pipes = append(pipes, netem.NewPipe(k, fmt.Sprintf("c%dp%d", i/2, i%2),
					netem.PipeConfig{Bandwidth: int64(i+1) * netem.Mbps}))
			}
			for i := 0; i < 64; i++ {
				c := i % 4
				path := []*netem.Pipe{pipes[2*c+i%2]}
				if i%3 == 0 {
					path = append(path, pipes[2*c+1-i%2])
				}
				m.Transfer(0, 1<<20, path, k.Rand(), func(sim.Time, bool) {})
			}
			m.FlushBatch()
			var dirty []*link
			for _, p := range pipes {
				dirty = append(dirty, m.links[p])
			}
			flushes := m.stats.Solves
			got := testing.AllocsPerRun(100, func() {
				for _, l := range dirty {
					m.markDirty(l)
				}
				m.FlushBatch()
			})
			if got != 0 {
				t.Errorf("%v allocs per flush, want 0", got)
			}
			if m.stats.Solves == flushes {
				t.Fatal("no flush ran; gate vacuous")
			}
		})
	}
}
