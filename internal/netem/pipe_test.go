package netem

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

func testRNG() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestPipeSerializationDelay(t *testing.T) {
	k := sim.New(1)
	// 8 Mbit/s: 1 MB takes exactly 1 second on the wire.
	p := NewPipe(k, "dsl-down", PipeConfig{Bandwidth: 8 * Mbps})
	out, ok := p.ScheduleAt(0, 1_000_000, testRNG())
	if !ok {
		t.Fatal("message dropped")
	}
	if out != sim.Time(time.Second) {
		t.Fatalf("exit at %v, want 1s", out)
	}
}

func TestPipePropagationDelay(t *testing.T) {
	k := sim.New(1)
	p := NewPipe(k, "lat", PipeConfig{Delay: 30 * time.Millisecond})
	out, ok := p.ScheduleAt(0, 1500, testRNG())
	if !ok || out != sim.Time(30*time.Millisecond) {
		t.Fatalf("exit at %v ok=%v, want 30ms", out, ok)
	}
}

func TestPipeUnlimitedBandwidth(t *testing.T) {
	k := sim.New(1)
	p := NewPipe(k, "inf", PipeConfig{})
	out, ok := p.ScheduleAt(sim.Time(time.Second), 1<<30, testRNG())
	if !ok || out != sim.Time(time.Second) {
		t.Fatalf("unlimited pipe should add no delay, got %v", out)
	}
}

func TestPipeFIFOQueueing(t *testing.T) {
	k := sim.New(1)
	// 1 Mbit/s: a 125000-byte message takes 1 second.
	p := NewPipe(k, "q", PipeConfig{Bandwidth: 1 * Mbps})
	rng := testRNG()
	first, _ := p.ScheduleAt(0, 125_000, rng)
	second, _ := p.ScheduleAt(0, 125_000, rng)
	if first != sim.Time(time.Second) {
		t.Fatalf("first exits at %v, want 1s", first)
	}
	if second != sim.Time(2*time.Second) {
		t.Fatalf("second must queue behind first: exits at %v, want 2s", second)
	}
}

func TestPipeIdleGapNotAccumulated(t *testing.T) {
	k := sim.New(1)
	p := NewPipe(k, "idle", PipeConfig{Bandwidth: 1 * Mbps})
	rng := testRNG()
	p.ScheduleAt(0, 125_000, rng) // busy until 1s
	// Enter at 10s, long after the pipe went idle.
	out, _ := p.ScheduleAt(sim.Time(10*time.Second), 125_000, rng)
	if out != sim.Time(11*time.Second) {
		t.Fatalf("exit at %v, want 11s (no stale backlog)", out)
	}
}

func TestPipeLossRate(t *testing.T) {
	k := sim.New(1)
	p := NewPipe(k, "lossy", PipeConfig{Loss: 0.3})
	rng := testRNG()
	const n = 10000
	dropped := 0
	for i := 0; i < n; i++ {
		if _, ok := p.ScheduleAt(0, 100, rng); !ok {
			dropped++
		}
	}
	rate := float64(dropped) / n
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("observed loss %.3f, want ~0.30", rate)
	}
	if p.Stats().Lost != uint64(dropped) {
		t.Fatalf("stats.Lost = %d, want %d", p.Stats().Lost, dropped)
	}
}

func TestPipeLossOneDropsEverything(t *testing.T) {
	k := sim.New(1)
	p := NewPipe(k, "blackhole", PipeConfig{Loss: 1})
	rng := testRNG()
	for i := 0; i < 100; i++ {
		if _, ok := p.ScheduleAt(0, 100, rng); ok {
			t.Fatal("loss=1 pipe delivered a message")
		}
	}
}

func TestPipeInvalidLossPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for loss > 1")
		}
	}()
	NewPipe(sim.New(1), "bad", PipeConfig{Loss: 1.5})
}

func TestPipeBacklog(t *testing.T) {
	k := sim.New(1)
	p := NewPipe(k, "b", PipeConfig{Bandwidth: 8 * Mbps})
	rng := testRNG()
	p.ScheduleAt(0, 1_000_000, rng) // busy until 1s
	got := p.Backlog(sim.Time(500 * time.Millisecond))
	if got < 490_000 || got > 510_000 {
		t.Fatalf("backlog at 0.5s = %d bytes, want ~500000", got)
	}
	if p.Backlog(sim.Time(2*time.Second)) != 0 {
		t.Fatal("backlog after drain should be 0")
	}
}

func TestPipeStats(t *testing.T) {
	k := sim.New(1)
	p := NewPipe(k, "s", PipeConfig{Bandwidth: 1 * Mbps})
	rng := testRNG()
	p.ScheduleAt(0, 1000, rng)
	p.ScheduleAt(0, 2000, rng)
	st := p.Stats()
	if st.Messages != 2 || st.Bytes != 3000 {
		t.Fatalf("stats = %+v, want 2 msgs / 3000 bytes", st)
	}
}

func TestPipeUtilization(t *testing.T) {
	k := sim.New(1)
	p := NewPipe(k, "u", PipeConfig{Bandwidth: 8 * Mbps})
	rng := testRNG()
	p.ScheduleAt(0, 500_000, rng) // half a second of wire time
	u := p.Utilization(PipeStats{}, 0, sim.Time(time.Second))
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %.3f, want ~0.5", u)
	}
}

// TestPipeUtilizationInterval: Utilization honors its [from, to]
// contract — only the bytes accepted inside the interval count, not
// everything since boot. Regression: the lifetime Bytes counter used
// to be divided by the interval's capacity, so a second phase with no
// traffic still reported the first phase's utilization.
func TestPipeUtilizationInterval(t *testing.T) {
	k := sim.New(1)
	p := NewPipe(k, "u2", PipeConfig{Bandwidth: 8 * Mbps})
	rng := testRNG()
	p.ScheduleAt(0, 500_000, rng) // phase 1: half a second of wire time
	phase1 := p.Stats()

	// Phase 2, [1s, 2s]: no traffic at all.
	if u := p.Utilization(phase1, sim.Time(time.Second), sim.Time(2*time.Second)); u != 0 {
		t.Fatalf("idle phase utilization = %.3f, want 0", u)
	}
	// Phase 2 with its own traffic reports only that traffic.
	p.ScheduleAt(sim.Time(time.Second), 250_000, rng)
	u := p.Utilization(phase1, sim.Time(time.Second), sim.Time(2*time.Second))
	if u < 0.24 || u > 0.26 {
		t.Fatalf("phase-2 utilization = %.3f, want ~0.25", u)
	}
	// The full-run view is unchanged by snapshotting.
	u = p.Utilization(PipeStats{}, 0, sim.Time(2*time.Second))
	if u < 0.36 || u > 0.39 {
		t.Fatalf("lifetime utilization = %.3f, want ~0.375", u)
	}
}

func TestPipeZeroJitterDeterministic(t *testing.T) {
	k := sim.New(1)
	p := NewPipe(k, "nj", PipeConfig{Delay: 10 * time.Millisecond})
	rng := testRNG()
	a, _ := p.ScheduleAt(0, 100, rng)
	b, _ := p.ScheduleAt(0, 100, rng)
	if a != b {
		t.Fatal("a delay-only pipe must be deterministic for identical inputs")
	}
}

func TestPipeMTUSameFirstOrderTiming(t *testing.T) {
	// DESIGN.md decision 2's fidelity claim: with no loss, one 16 KiB
	// message charged whole exits when the same bytes charged as
	// 1500-byte packets, back to back through ScheduleAt, do.
	k := sim.New(1)
	cfg := PipeConfig{Bandwidth: 2 * Mbps, Delay: 30 * time.Millisecond}
	msg := NewPipe(k, "msg", cfg)
	pkt := NewPipe(k, "pkt", cfg)
	rng := testRNG()
	a, ok := msg.ScheduleAt(0, 16384, rng)
	if !ok {
		t.Fatal("unexpected drop")
	}
	var b sim.Time
	for sent := 0; sent < 16384; sent += 1500 {
		if b, ok = pkt.ScheduleAt(0, min(16384-sent, 1500), rng); !ok {
			t.Fatal("unexpected drop")
		}
	}
	if a != b {
		t.Fatalf("message-level exit %v != packet-level exit %v", a, b)
	}
}

func TestPipeMonotoneExitTimes(t *testing.T) {
	// Messages scheduled in causal order must exit in order (FIFO link).
	k := sim.New(1)
	p := NewPipe(k, "fifo", PipeConfig{Bandwidth: 512 * Kbps, Delay: 10 * time.Millisecond})
	rng := testRNG()
	var last sim.Time
	at := sim.Time(0)
	for i := 0; i < 1000; i++ {
		at = at.Add(time.Duration(rng.Intn(3)) * time.Millisecond)
		out, ok := p.ScheduleAt(at, 100+rng.Intn(1400), rng)
		if !ok {
			continue
		}
		if out < last {
			t.Fatalf("exit times went backwards: %v after %v", out, last)
		}
		last = out
	}
}

// BenchmarkPipeGranularity compares message-level pipe charging
// (DESIGN.md decision 2) against charging the same bytes as 1500-byte
// packets, one ScheduleAt each, for a 16 KiB block.
func BenchmarkPipeGranularity(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := PipeConfig{Bandwidth: 2 * Mbps, Delay: 30 * time.Millisecond}
	b.Run("message", func(b *testing.B) {
		p := NewPipe(sim.New(1), "m", cfg)
		at := sim.Time(0)
		for i := 0; i < b.N; i++ {
			exit, _ := p.ScheduleAt(at, 16384, rng)
			at = exit
		}
	})
	b.Run("packets", func(b *testing.B) {
		p := NewPipe(sim.New(1), "p", cfg)
		at := sim.Time(0)
		for i := 0; i < b.N; i++ {
			var exit sim.Time
			for sent := 0; sent < 16384; sent += 1500 {
				exit, _ = p.ScheduleAt(at, min(16384-sent, 1500), rng)
			}
			at = exit
		}
	})
}
