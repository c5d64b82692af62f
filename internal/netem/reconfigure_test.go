package netem

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// runPipeWorkload pushes a deterministic message mix through one pipe,
// optionally reconfiguring it (with its own current config — a no-op)
// before every message, and returns the observed exit schedule.
func runPipeWorkload(t *testing.T, seed int64, selfReconfigure bool) []sim.Time {
	t.Helper()
	k := sim.New(seed)
	p := NewPipe(k, "p", PipeConfig{
		Bandwidth: 1 * Mbps, Delay: 10 * time.Millisecond, Loss: 0.05,
	})
	rng := rand.New(rand.NewSource(seed))
	var exits []sim.Time
	at := sim.Time(0)
	for i := 0; i < 500; i++ {
		if selfReconfigure {
			p.Reconfigure(p.Config())
		}
		at = at.Add(time.Duration(rng.Intn(12)) * time.Millisecond)
		exit, ok := p.ScheduleAt(at, 200+rng.Intn(8000), rng)
		if ok {
			exits = append(exits, exit)
		} else {
			exits = append(exits, -1)
		}
	}
	return exits
}

// TestReconfigureIdenticalIsNoop: reconfiguring a pipe to its current
// configuration must not perturb the schedule at all — same exits,
// same drops, same RNG consumption.
func TestReconfigureIdenticalIsNoop(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		plain := runPipeWorkload(t, seed, false)
		reconf := runPipeWorkload(t, seed, true)
		if len(plain) != len(reconf) {
			t.Fatalf("seed %d: schedule lengths diverge", seed)
		}
		for i := range plain {
			if plain[i] != reconf[i] {
				t.Fatalf("seed %d: message %d exits at %v plain vs %v with no-op reconfigure",
					seed, i, plain[i], reconf[i])
			}
		}
	}
}

// TestReconfigureReratesCursor checks the Dummynet runtime-reconfigure
// semantics analytically: the unserialized backlog is re-charged at
// the new bandwidth, in both directions, and the cursor never lands in
// the virtual past.
func TestReconfigureReratesCursor(t *testing.T) {
	const size = 125_000 // 1 Mbit -> 1 s at 1 Mbps
	cases := []struct {
		name    string
		newBW   int64
		wait    time.Duration // virtual instant of the reconfigure
		nextDur time.Duration // serialization start offset for a probe sent at reconfigure time
	}{
		// Halfway through a 1 s serialization, 0.5 Mbit remain.
		{"upgrade", 2 * Mbps, 500 * time.Millisecond, 250 * time.Millisecond},
		{"degrade", 500 * Kbps, 500 * time.Millisecond, 1000 * time.Millisecond},
		{"to-unlimited", 0, 500 * time.Millisecond, 0},
		// After the message fully serialized, reconfigure must not
		// resurrect a backlog (cursor stays in the past, probe starts
		// immediately).
		{"after-idle", 2 * Mbps, 1500 * time.Millisecond, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New(1)
			p := NewPipe(k, "p", PipeConfig{Bandwidth: 1 * Mbps})
			rng := rand.New(rand.NewSource(1))
			exit, ok := p.ScheduleAt(0, size, rng)
			if !ok || exit != sim.Time(time.Second) {
				t.Fatalf("setup transfer: exit %v ok %v", exit, ok)
			}
			var probe sim.Time
			k.At(sim.Time(tc.wait), func() {
				cfg := p.Config()
				cfg.Bandwidth = tc.newBW
				p.Reconfigure(cfg)
				if bl := p.Backlog(k.Now()); bl < 0 {
					t.Errorf("negative backlog %d after reconfigure", bl)
				}
				// A zero-size probe exits exactly when the serializer
				// frees: the re-rated cursor, observably.
				probe, _ = p.ScheduleAt(k.Now(), 0, rng)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			want := sim.Time(tc.wait).Add(tc.nextDur)
			if probe != want {
				t.Errorf("probe after reconfigure exits at %v, want %v", probe, want)
			}
			if probe < sim.Time(tc.wait) {
				t.Errorf("cursor moved into the virtual past: %v < %v", probe, tc.wait)
			}
		})
	}
}

// TestReconfigureLossValidation: a reconfigure with an out-of-range
// loss panics like NewPipe does.
func TestReconfigureLossValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad loss accepted")
		}
	}()
	k := sim.New(1)
	p := NewPipe(k, "p", PipeConfig{})
	p.Reconfigure(PipeConfig{Loss: 1.5})
}
