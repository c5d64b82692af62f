package flow

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

const mbps = float64(netem.Mbps)

// start launches one transfer and returns a pointer to its recorded
// exit time (zero until delivered; loss-free configs always deliver).
func start(t *testing.T, m *Model, k *sim.Kernel, size int, path ...*netem.Pipe) *sim.Time {
	t.Helper()
	exit := new(sim.Time)
	m.Transfer(k.Now(), size, path, k.Rand(), func(e sim.Time, ok bool) {
		if !ok {
			t.Errorf("transfer of %d B dropped unexpectedly", size)
		}
		*exit = e
	})
	return exit
}

// TestMaxMinTextbook is the classic 3-flow/2-link case: link L1 of
// 1 Mbps carries flows A and B, link L2 of 2 Mbps carries flows A and
// C, A crossing both. Max-min fairness gives A=B=0.5 Mbps (L1 is A's
// bottleneck) and C the remaining 1.5 Mbps of L2.
func TestMaxMinTextbook(t *testing.T) {
	k := sim.New(1)
	m := NewWithConfig(k, Config{})
	l1 := netem.NewPipe(k, "L1", netem.PipeConfig{Bandwidth: 1 * netem.Mbps})
	l2 := netem.NewPipe(k, "L2", netem.PipeConfig{Bandwidth: 2 * netem.Mbps})

	const size = 1_000_000 // 8 Mbit each
	exitA := start(t, m, k, size, l1, l2)
	exitB := start(t, m, k, size, l1)
	exitC := start(t, m, k, size, l2)

	rates := map[uint64]float64{}
	for _, f := range m.links[l1].flows {
		rates[f.id] = f.rate
	}
	for _, f := range m.links[l2].flows {
		rates[f.id] = f.rate
	}
	want := map[uint64]float64{1: 0.5 * mbps, 2: 0.5 * mbps, 3: 1.5 * mbps}
	for id, w := range want {
		if rates[id] != w {
			t.Errorf("flow %d rate = %v bps, want %v", id, rates[id], w)
		}
	}

	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	bits := float64(int64(size) * 8)
	// C finishes first at 8 Mbit / 1.5 Mbps; its departure leaves A
	// still bottlenecked on L1, so A and B finish together at exactly
	// 8 Mbit / 0.5 Mbps = 16 s.
	if wantC := sim.Time(0).Add(durBits(bits, 1.5*mbps)); *exitC != wantC {
		t.Errorf("flow C exit = %v, want %v", *exitC, wantC)
	}
	want16 := sim.Time(0).Add(16 * time.Second)
	if *exitA != want16 || *exitB != want16 {
		t.Errorf("flows A, B exit = %v, %v, want both %v", *exitA, *exitB, want16)
	}
}

// TestSingleFlowMatchesSerialization: an uncontended flow over one
// constrained pipe plus delay-only pipes completes exactly at the pipe
// model's serialization + propagation schedule.
func TestSingleFlowMatchesSerialization(t *testing.T) {
	k := sim.New(1)
	m := NewWithConfig(k, Config{})
	up := netem.NewPipe(k, "up", netem.PipeConfig{Bandwidth: 512 * netem.Kbps, Delay: 30 * time.Millisecond})
	wan := netem.NewPipe(k, "wan", netem.PipeConfig{Delay: 45 * time.Millisecond})

	const size = 37 * 1024
	exit := start(t, m, k, size, up, wan)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ser := time.Duration(float64(int64(size)*8) / float64(512*netem.Kbps) * float64(time.Second))
	want := sim.Time(0).Add(ser + 75*time.Millisecond)
	if *exit != want {
		t.Errorf("exit = %v, want %v", *exit, want)
	}
}

// TestFairShareSettling: a second flow joining a link mid-transfer
// halves the first flow's rate from that instant; the completion
// schedule must integrate the piecewise-constant rate exactly.
func TestFairShareSettling(t *testing.T) {
	k := sim.New(1)
	m := NewWithConfig(k, Config{})
	l := netem.NewPipe(k, "l", netem.PipeConfig{Bandwidth: 8 * netem.Mbps})

	const size = 4_000_000 // 32 Mbit: alone it takes 4 s
	exit1 := start(t, m, k, size, l)
	exit2 := new(sim.Time)
	k.At(sim.Time(0).Add(2*time.Second), func() {
		m.Transfer(k.Now(), size, []*netem.Pipe{l}, k.Rand(), func(e sim.Time, ok bool) {
			*exit2 = e
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Flow 1: 2 s at 8 Mbps (16 Mbit left), then 4 Mbps → done at 6 s.
	// Flow 2: 4 Mbps until flow 1 leaves (16 Mbit carried), then the
	// full 8 Mbps for its last 16 Mbit → done at 8 s.
	if want := sim.Time(0).Add(6 * time.Second); *exit1 != want {
		t.Errorf("flow 1 exit = %v, want %v", *exit1, want)
	}
	if want := sim.Time(0).Add(8 * time.Second); *exit2 != want {
		t.Errorf("flow 2 exit = %v, want %v", *exit2, want)
	}
}

// TestIncrementalComponentScoping: churn on one bottleneck must not
// visit or re-rate flows on a disjoint bottleneck.
func TestIncrementalComponentScoping(t *testing.T) {
	k := sim.New(1)
	m := NewWithConfig(k, Config{})
	la := netem.NewPipe(k, "a", netem.PipeConfig{Bandwidth: 1 * netem.Mbps})
	lb := netem.NewPipe(k, "b", netem.PipeConfig{Bandwidth: 1 * netem.Mbps})

	const size = 1 << 20
	start(t, m, k, size, la)
	start(t, m, k, size, la)
	start(t, m, k, size, lb)

	fb := m.links[lb].flows[0]
	ratedB := fb.ratedAt
	rateB := fb.rate

	solved := m.stats.SolvedFlows
	rerates := m.stats.Rerates
	start(t, m, k, size, la) // third flow on bottleneck A

	if got := m.stats.SolvedFlows - solved; got != 3 {
		t.Errorf("solve visited %d flows, want 3 (A's component only)", got)
	}
	if got := m.stats.Rerates - rerates; got != 3 {
		t.Errorf("rerated %d flows, want 3", got)
	}
	if fb.ratedAt != ratedB || fb.rate != rateB {
		t.Errorf("disjoint flow B was touched: rate %v@%v -> %v@%v",
			rateB, ratedB, fb.rate, fb.ratedAt)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if st := m.stats; st.Started != st.Completed {
		t.Errorf("%d flows started, %d completed", st.Started, st.Completed)
	}
}

// TestUnchangedRatesKeepSchedules: a flow joining one end of a chain
// component re-solves the whole component, but flows whose share is
// unchanged keep their completion event untouched.
func TestUnchangedRatesKeepSchedules(t *testing.T) {
	k := sim.New(1)
	m := NewWithConfig(k, Config{})
	narrow := netem.NewPipe(k, "narrow", netem.PipeConfig{Bandwidth: 1 * netem.Mbps})
	wide := netem.NewPipe(k, "wide", netem.PipeConfig{Bandwidth: 100 * netem.Mbps})

	const size = 1 << 20
	start(t, m, k, size, narrow, wide) // bottlenecked at 1 Mbps on narrow
	f := m.links[narrow].flows[0]
	rerates := m.stats.Rerates

	// A flow on the wide link alone: shares the component with f via
	// wide, but wide stays uncongested (99 Mbps residual), so f's rate
	// recomputes to the bit-identical 1 Mbps and is not rescheduled.
	start(t, m, k, size, wide)
	if f.rate != 1*mbps {
		t.Errorf("bottlenecked flow rate = %v, want %v", f.rate, 1*mbps)
	}
	if got := m.stats.Rerates - rerates; got != 1 {
		t.Errorf("rerated %d flows, want 1 (the new flow only)", got)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLossAndQueueAdmission: per-pipe loss drops at entry, before the
// message becomes a flow.
func TestLossAndQueueAdmission(t *testing.T) {
	k := sim.New(1)
	m := NewWithConfig(k, Config{})
	lossy := netem.NewPipe(k, "lossy", netem.PipeConfig{Bandwidth: netem.Mbps, Loss: 1})
	dropped := false
	m.Transfer(0, 1024, []*netem.Pipe{lossy}, k.Rand(), func(_ sim.Time, ok bool) {
		dropped = !ok
	})
	if !dropped {
		t.Error("loss=1 pipe delivered")
	}
	if m.stats.Started != 0 || lossy.Stats().Lost != 1 {
		t.Errorf("lost message started a flow or went unaccounted (started=%d, pipe lost=%d)",
			m.stats.Started, lossy.Stats().Lost)
	}
}

// TestPipeStatsAccounting: the flow model keeps the traversed pipes'
// Messages/Bytes counters (and so their utilization) meaningful.
func TestPipeStatsAccounting(t *testing.T) {
	k := sim.New(1)
	m := NewWithConfig(k, Config{})
	up := netem.NewPipe(k, "up", netem.PipeConfig{Bandwidth: netem.Mbps})
	wan := netem.NewPipe(k, "wan", netem.PipeConfig{Delay: time.Millisecond})
	start(t, m, k, 125_000, up, wan)
	start(t, m, k, 125_000, up, wan)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*netem.Pipe{up, wan} {
		st := p.Stats()
		if st.Messages != 2 || st.Bytes != 250_000 {
			t.Errorf("pipe %s stats = %+v, want 2 messages / 250000 B", p.Name(), st)
		}
	}
	// 2 Mbit through a 1 Mbps pipe over the 2 s the run took: fully
	// utilized.
	if u := float64(up.Stats().Bytes) * 8 / (float64(up.Config().Bandwidth) * k.Now().Sub(0).Seconds()); u < 0.99 {
		t.Errorf("uplink utilization = %v, want ~1", u)
	}
}

// TestTraceRateChanges: rate assignments and completions appear on the
// virtual timeline under the net.flow category.
func TestTraceRateChanges(t *testing.T) {
	k := sim.New(1)
	m := NewWithConfig(k, Config{})
	log := trace.New(0)
	m.SetTrace(log)
	l := netem.NewPipe(k, "l", netem.PipeConfig{Bandwidth: netem.Mbps})

	start(t, m, k, 1<<20, l)
	start(t, m, k, 1<<20, l)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// flow 1 start, (flow 2 start + flow 1 rerate), 2 completions, and
	// the surviving flow's speed-up after the first completion.
	if got := log.Count("net.flow"); got < 5 {
		t.Errorf("net.flow trace events = %d, want >= 5", got)
	}
	for _, e := range log.Events() {
		if e.Cat != "net.flow" {
			t.Errorf("unexpected category %q", e.Cat)
		}
	}
}

// TestDeterminism: two runs of an identical randomized workload produce
// identical completion schedules.
func TestDeterminism(t *testing.T) {
	run := func() []sim.Time {
		k := sim.New(7)
		m := NewWithConfig(k, Config{})
		var pipes []*netem.Pipe
		for i := 0; i < 4; i++ {
			pipes = append(pipes, netem.NewPipe(k, "p", netem.PipeConfig{
				Bandwidth: int64(i+1) * netem.Mbps, Delay: 5 * time.Millisecond,
			}))
		}
		rng := rand.New(rand.NewSource(99))
		var exits []sim.Time
		for i := 0; i < 50; i++ {
			path := []*netem.Pipe{pipes[rng.Intn(4)], pipes[rng.Intn(4)]}
			size := 1024 + rng.Intn(1<<18)
			at := sim.Time(rng.Int63n(int64(2 * time.Second)))
			k.At(at, func() {
				m.Transfer(k.Now(), size, path, k.Rand(), func(e sim.Time, ok bool) {
					exits = append(exits, e)
				})
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return exits
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("exit %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
