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
				dirty = append(dirty, m.linkOf(p))
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

// relay is a chain of back-to-back transfers: each one's done starts
// the next, re-entering Transfer, until left runs out. Its done is
// bound once, so the chain itself allocates nothing.
type relay struct {
	m      *Model
	path   []*netem.Pipe
	size   int
	left   int
	doneFn func(sim.Time, bool)
}

func (r *relay) start() {
	r.m.Transfer(r.m.k.Now(), r.size, r.path, r.m.k.Rand(), r.doneFn)
}

func (r *relay) done(_ sim.Time, ok bool) {
	if r.left--; ok && r.left > 0 {
		r.start()
	}
}

// TestTransferDoesNotAllocate is the allocation gate of the engine's
// per-transfer state: the xfer, its links, its bound completion and its
// completion event are pooled, so once warm a Transfer → complete →
// Transfer round trip allocates nothing. Two relays share a pipe, so
// every arrival and departure re-rates the other relay's flow.
func TestTransferDoesNotAllocate(t *testing.T) {
	for _, window := range []time.Duration{0, 50 * time.Millisecond} {
		t.Run(fmt.Sprintf("window=%s", window), func(t *testing.T) {
			k := sim.New(1)
			m := NewWithConfig(k, Config{Window: window})
			shared := netem.NewPipe(k, "shared", netem.PipeConfig{Bandwidth: 8 * netem.Mbps})
			own := netem.NewPipe(k, "own", netem.PipeConfig{Bandwidth: 2 * netem.Mbps})
			relays := []*relay{
				{m: m, path: []*netem.Pipe{shared}, size: 64 << 10},
				{m: m, path: []*netem.Pipe{shared, own}, size: 48 << 10},
			}
			for _, r := range relays {
				r.doneFn = r.done
			}
			got := testing.AllocsPerRun(100, func() {
				for _, r := range relays {
					r.left = 8
					r.start()
				}
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
			})
			if got != 0 {
				t.Errorf("%v allocs per 16 transfers, want 0", got)
			}
			if st := m.Stats(); st.Completed != 101*16 || st.Started != st.Completed {
				t.Fatalf("stats %+v, want %d started and completed", st, 101*16)
			}
		})
	}
}
