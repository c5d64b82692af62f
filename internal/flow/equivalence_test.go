package flow_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/netem"
	"repro/internal/sim"
)

// The flow model's fidelity anchor: with no sharing — at most one flow
// in flight, at most one bandwidth-constrained pipe per path — the
// fluid model degenerates to the pipe model's serialization + delay
// schedule, byte for byte, including the loss and jitter draw
// sequence. Randomized path shapes, sizes, losses and jitters all
// must agree between the two models under the same seed.

// pathConfig is one randomized scenario: a pipe path with at most one
// bandwidth-constrained pipe, and a message arrival plan that never
// overlaps two messages (send i+1 only after i has fully exited).
type pathConfig struct {
	pipes []netem.PipeConfig
	sizes []int
}

// genConfig draws a scenario from rng.
func genConfig(rng *rand.Rand) pathConfig {
	var pc pathConfig
	nPipes := 1 + rng.Intn(3)
	constrained := rng.Intn(nPipes)
	for i := 0; i < nPipes; i++ {
		cfg := netem.PipeConfig{Delay: time.Duration(rng.Intn(100)) * time.Millisecond}
		if rng.Intn(2) == 0 {
			cfg.Jitter = time.Duration(1+rng.Intn(10)) * time.Millisecond
		}
		if rng.Intn(4) == 0 {
			cfg.Loss = 0.2 * rng.Float64()
		}
		if i == constrained {
			cfg.Bandwidth = int64(64+rng.Intn(2048)) * netem.Kbps
		}
		pc.pipes = append(pc.pipes, cfg)
	}
	nMsgs := 5 + rng.Intn(20)
	for i := 0; i < nMsgs; i++ {
		pc.sizes = append(pc.sizes, 64+rng.Intn(64*1024))
	}
	return pc
}

// runSchedule replays the scenario under one model kind and returns
// the per-message exit instants (-1 = dropped). Messages are strictly
// serialized: each is sent at a fixed instant far past the previous
// one's worst-case exit, so no two flows ever share a link.
func runSchedule(t *testing.T, pc pathConfig, kind netem.ModelKind, seed int64) []sim.Time {
	t.Helper()
	k := sim.New(seed)
	transfer := netem.NewPipeModel(k).Transfer
	if kind == netem.ModelFlow {
		transfer = flow.New(k).Transfer
	}
	var pipes []*netem.Pipe
	for i, cfg := range pc.pipes {
		pipes = append(pipes, netem.NewPipe(k, fmt.Sprintf("p%d", i), cfg))
	}
	// Worst case per message: 64 KiB at 64 kbps ≈ 8.4 s plus delays.
	const gap = 30 * time.Second
	exits := make([]sim.Time, len(pc.sizes))
	for i, size := range pc.sizes {
		i, size := i, size
		k.At(sim.Time(i)*sim.Time(gap), func() {
			transfer(k.Now(), size, pipes, k.Rand(), func(exit sim.Time, ok bool) {
				if !ok {
					exits[i] = -1
					return
				}
				exits[i] = exit
			})
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return exits
}

// TestFlowPipeEquivalence is the no-sharing property test from the
// issue: for fixed seeds, the flow model's completion times are
// byte-identical to the pipe model's serialization + delay schedule.
func TestFlowPipeEquivalence(t *testing.T) {
	meta := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 40; trial++ {
		pc := genConfig(meta)
		seed := meta.Int63()
		pipeExits := runSchedule(t, pc, netem.ModelPipe, seed)
		flowExits := runSchedule(t, pc, netem.ModelFlow, seed)
		for i := range pipeExits {
			if pipeExits[i] != flowExits[i] {
				t.Fatalf("trial %d (%+v): message %d exits differ: pipe=%v flow=%v",
					trial, pc.pipes, i, pipeExits[i], flowExits[i])
			}
		}
	}
}

// TestFlowPipeEquivalenceUnconstrained: a path with no bandwidth limit
// at all is the inline fast path in both models.
func TestFlowPipeEquivalenceUnconstrained(t *testing.T) {
	pc := pathConfig{
		pipes: []netem.PipeConfig{{Delay: 10 * time.Millisecond}, {Delay: 20 * time.Millisecond}},
		sizes: []int{100, 2000, 30000},
	}
	pipeExits := runSchedule(t, pc, netem.ModelPipe, 5)
	flowExits := runSchedule(t, pc, netem.ModelFlow, 5)
	for i := range pipeExits {
		if pipeExits[i] != flowExits[i] {
			t.Fatalf("message %d exits differ: pipe=%v flow=%v", i, pipeExits[i], flowExits[i])
		}
	}
}
