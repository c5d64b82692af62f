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

func TestPipeQueueOverflowDrops(t *testing.T) {
	k := sim.New(1)
	// Backlog counts untransmitted bytes, including the message currently
	// in the serializer: 125 kB + 125 kB fits a 260 kB queue, a third
	// message does not.
	p := NewPipe(k, "small-q", PipeConfig{Bandwidth: 1 * Mbps, QueueBytes: 260_000})
	rng := testRNG()
	if _, ok := p.ScheduleAt(0, 125_000, rng); !ok {
		t.Fatal("first message should pass")
	}
	if _, ok := p.ScheduleAt(0, 125_000, rng); !ok {
		t.Fatal("second message fits the queue")
	}
	if _, ok := p.ScheduleAt(0, 125_000, rng); ok {
		t.Fatal("third message should overflow the 260 kB queue")
	}
	if p.Stats().Overflows != 1 {
		t.Fatalf("overflows = %d, want 1", p.Stats().Overflows)
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

func TestPipeJitterRange(t *testing.T) {
	k := sim.New(1)
	p := NewPipe(k, "jitter", PipeConfig{Delay: 10 * time.Millisecond, Jitter: 5 * time.Millisecond})
	rng := testRNG()
	seen := map[sim.Time]bool{}
	for i := 0; i < 500; i++ {
		out, ok := p.ScheduleAt(0, 100, rng)
		if !ok {
			t.Fatal("drop")
		}
		if out < sim.Time(10*time.Millisecond) || out >= sim.Time(15*time.Millisecond) {
			t.Fatalf("delay %v outside [10ms, 15ms)", out)
		}
		seen[out] = true
	}
	if len(seen) < 100 {
		t.Fatalf("jitter not varying: %d distinct delays", len(seen))
	}
}

func TestPipeZeroJitterDeterministic(t *testing.T) {
	k := sim.New(1)
	p := NewPipe(k, "nj", PipeConfig{Delay: 10 * time.Millisecond})
	rng := testRNG()
	a, _ := p.ScheduleAt(0, 100, rng)
	b, _ := p.ScheduleAt(0, 100, rng)
	if a != b {
		t.Fatal("no-jitter pipe must be deterministic for identical inputs")
	}
}

func TestPipeMTUSameFirstOrderTiming(t *testing.T) {
	// With no loss and no queue bound, packet-granularity charging must
	// produce the same exit time as message-level charging.
	k := sim.New(1)
	msg := NewPipe(k, "msg", PipeConfig{Bandwidth: 2 * Mbps, Delay: 30 * time.Millisecond})
	pkt := NewPipe(k, "pkt", PipeConfig{Bandwidth: 2 * Mbps, Delay: 30 * time.Millisecond, MTU: 1500})
	rng := testRNG()
	a, okA := msg.ScheduleAt(0, 16384, rng)
	b, okB := pkt.ScheduleAt(0, 16384, rng)
	if !okA || !okB {
		t.Fatal("unexpected drop")
	}
	if a != b {
		t.Fatalf("message-level exit %v != packet-level exit %v", a, b)
	}
}

func TestPipeMTULossPerPacket(t *testing.T) {
	// A 16 KiB message is 11 packets at 1500 B; with 5% per-packet
	// loss the message survival rate is 0.95^11 ≈ 57%, far below the
	// 95% a message-level pipe would deliver.
	k := sim.New(1)
	p := NewPipe(k, "lossy", PipeConfig{Loss: 0.05, MTU: 1500})
	rng := testRNG()
	const n = 5000
	survived := 0
	for i := 0; i < n; i++ {
		if _, ok := p.ScheduleAt(0, 16384, rng); ok {
			survived++
		}
	}
	rate := float64(survived) / n
	if rate < 0.52 || rate > 0.62 {
		t.Fatalf("per-packet survival = %.3f, want ≈0.57 (0.95^11)", rate)
	}
}

func TestPipeMTUSmallMessageUnchanged(t *testing.T) {
	// Messages at or below the MTU take the message-level path.
	k := sim.New(1)
	p := NewPipe(k, "small", PipeConfig{Bandwidth: Mbps, MTU: 1500})
	rng := testRNG()
	if _, ok := p.ScheduleAt(0, 1500, rng); !ok {
		t.Fatal("drop without loss")
	}
	if p.Stats().Messages != 1 {
		t.Fatalf("messages = %d", p.Stats().Messages)
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
// (DESIGN.md decision 2) against packet-chunked charging (1500-byte
// MTU) for a 16 KiB block.
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
