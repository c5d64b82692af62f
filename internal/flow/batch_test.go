package flow

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// refMaxMin recomputes the max-min fair allocation of every live flow
// over pipes from scratch, independently of the engine's incremental
// state: textbook progressive filling over a snapshot of the
// links↔flows graph. The allocation is unique, so any correct solver
// must agree with it up to floating-point accumulation order.
func refMaxMin(m *Model, pipes []*netem.Pipe) map[*xfer]float64 {
	var links []*link
	for _, p := range pipes {
		if l := m.linkOf(p); l != nil && len(l.flows) > 0 {
			links = append(links, l)
		}
	}
	sort.Slice(links, func(i, j int) bool { return links[i].pipe.Name() < links[j].pipe.Name() })
	residual := map[*link]float64{}
	active := map[*link]int{}
	rates := map[*xfer]float64{}
	unfrozen := 0
	seen := map[*xfer]bool{}
	for _, l := range links {
		if bw := l.pipe.Config().Bandwidth; bw <= 0 {
			residual[l] = math.Inf(1)
		} else {
			residual[l] = float64(bw)
		}
		active[l] = len(l.flows)
		for _, f := range l.flows {
			if !seen[f] {
				seen[f] = true
				unfrozen++
			}
		}
	}
	for unfrozen > 0 {
		var bott *link
		var share float64
		for _, l := range links {
			if active[l] == 0 {
				continue
			}
			if s := residual[l] / float64(active[l]); bott == nil || s < share {
				bott, share = l, s
			}
		}
		if bott == nil {
			break
		}
		if share < 0 {
			share = 0
		}
		for _, f := range bott.flows {
			if _, done := rates[f]; done {
				continue
			}
			rates[f] = share
			unfrozen--
			for _, l2 := range f.links {
				if !math.IsInf(share, 1) {
					residual[l2] -= share
				}
				active[l2]--
			}
		}
	}
	return rates
}

func closeRel(got, want, eps float64) bool {
	if got == want {
		return true
	}
	scale := math.Abs(want)
	if s := math.Abs(got); s > scale {
		scale = s
	}
	return math.Abs(got-want) <= eps*scale
}

// churn is a randomized windowed workload on its own kernel: a 1–40 ms
// window, 2–6 pipes, and 60–119 flows over random pipe subsets that
// arrive at random instants in the first 10 s and depart as they
// drain. Each reconfigure event sets a random pipe's bandwidth
// (unlimited one time in eight) at a random instant and calls
// PipeReconfigured, half of them after the FlushBatch vnet makes
// first. scripted counts the arrivals and reconfigures yet to run.
type churn struct {
	k        *sim.Kernel
	m        *Model
	pipes    []*netem.Pipe
	scripted int
}

// newChurn draws a churn workload from seed with reconfigs reconfigure
// events. A non-nil flushed runs after every flush: each window
// boundary and each reconfigure that flushed.
func newChurn(seed int64, reconfigs int, flushed func()) *churn {
	rng := rand.New(rand.NewSource(seed))
	k := sim.New(seed)
	m := NewWithConfig(k, Config{Window: time.Duration(1+rng.Intn(40)) * time.Millisecond})
	c := &churn{k: k, m: m}
	if flushed != nil {
		m.flushFn = func() {
			m.FlushBatch()
			flushed()
		}
	}
	c.pipes = make([]*netem.Pipe, 2+rng.Intn(5))
	for i := range c.pipes {
		c.pipes[i] = netem.NewPipe(k, fmt.Sprintf("p%d", i), netem.PipeConfig{
			Bandwidth: int64(1+rng.Intn(40)) * netem.Mbps / 4,
		})
	}
	for i := 0; i < 60+rng.Intn(60); i++ {
		var path []*netem.Pipe
		for _, p := range c.pipes {
			if rng.Intn(3) == 0 {
				path = append(path, p)
			}
		}
		if len(path) == 0 {
			path = append(path, c.pipes[rng.Intn(len(c.pipes))])
		}
		size := 50_000 + rng.Intn(2_000_000)
		at := sim.Time(rng.Int63n(int64(10 * time.Second)))
		c.scripted++
		k.At(at, func() {
			c.scripted--
			m.Transfer(k.Now(), size, path, k.Rand(), func(sim.Time, bool) {})
		})
	}
	for i := 0; i < reconfigs; i++ {
		p := c.pipes[rng.Intn(len(c.pipes))]
		var bw int64
		if rng.Intn(8) != 0 {
			bw = int64(1+rng.Intn(40)) * netem.Mbps / 4
		}
		flushFirst := rng.Intn(2) == 0
		at := sim.Time(rng.Int63n(int64(10 * time.Second)))
		c.scripted++
		k.At(at, func() {
			c.scripted--
			if flushFirst && len(m.dirty) > 0 {
				m.FlushBatch()
				if flushed != nil {
					flushed()
				}
			}
			cfg := p.Config()
			cfg.Bandwidth = bw
			p.Reconfigure(cfg)
			before := m.stats.Flushes
			m.PipeReconfigured(p)
			if flushed != nil && m.stats.Flushes != before {
				flushed()
			}
		})
	}
	return c
}

// checkRates fails t unless every live flow is rated at its max-min
// fair share, within 1e-9 of refMaxMin.
func (c *churn) checkRates(t testing.TB) map[*xfer]float64 {
	t.Helper()
	want := refMaxMin(c.m, c.pipes)
	for f, w := range want {
		if f.rate < 0 {
			t.Fatalf("at %v: flow %d unrated after flush", c.k.Now(), f.id)
		}
		if !closeRel(f.rate, w, 1e-9) {
			t.Fatalf("at %v: flow %d rate %v bps, want %v bps (%d flows live)",
				c.k.Now(), f.id, f.rate, w, len(want))
		}
	}
	return want
}

// TestIncrementalMatchesScratch is the property test for the
// incremental re-leveler: randomized bipartite graphs (flows over
// random pipe subsets, random arrival times and sizes, departures as
// flows drain) driven through the batched solver, checked at sampling
// instants against a from-scratch progressive filling of the live
// graph.
func TestIncrementalMatchesScratch(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := newChurn(seed, 0, nil)
			for s := 1; s <= 24; s++ {
				at := sim.Time(int64(s) * int64(500*time.Millisecond))
				c.k.At(at, func() {
					c.m.FlushBatch()
					c.checkRates(t)
				})
			}
			if err := c.k.Run(); err != nil {
				t.Fatal(err)
			}
			if c.m.stats.Completed == 0 {
				t.Fatal("workload completed no flows; property vacuous")
			}
		})
	}
}

// FuzzWindowedFlush drives newChurn's workloads, reconfigures
// included, and checks the engine after every flush: each live flow is
// rated at its max-min fair share (refMaxMin, within 1e-9), and has its
// completion armed — the kernel holds exactly one pending event per
// live flow beside the workload's own, since a flush leaves no window
// boundary pending.
func FuzzWindowedFlush(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed*3))
	}
	f.Fuzz(func(t *testing.T, seed int64, reconfigs uint8) {
		var c *churn
		flushes := 0
		c = newChurn(seed, int(reconfigs%32), func() {
			flushes++
			live := len(c.checkRates(t))
			if got := c.k.QueueLen(); got != live+c.scripted {
				t.Fatalf("at %v: %d pending events, want %d live flows' completions + %d scripted",
					c.k.Now(), got, live, c.scripted)
			}
		})
		if err := c.k.Run(); err != nil {
			t.Fatal(err)
		}
		if flushes == 0 || c.m.stats.Started != c.m.stats.Completed {
			t.Fatalf("%d flushes checked, stats %+v: want flushes and every flow completed", flushes, c.m.stats)
		}
	})
}

// batchedWorkload drives a multi-component churn workload through a
// fixed 50 ms window and returns the rendered trace plus exit times —
// the full observable behavior — and the engine stats.
func batchedWorkload(t *testing.T) (string, []sim.Time, Stats) {
	t.Helper()
	k := sim.New(11)
	m := NewWithConfig(k, Config{Window: 50 * time.Millisecond})
	log := trace.New(0)
	m.SetTrace(log)
	// Four disjoint clusters of two pipes each: flows stay inside one
	// cluster, so every flush sees several independent components.
	var pipes []*netem.Pipe
	for i := 0; i < 8; i++ {
		pipes = append(pipes, netem.NewPipe(k, fmt.Sprintf("c%dp%d", i/2, i%2), netem.PipeConfig{
			Bandwidth: int64(i+1) * netem.Mbps, Delay: time.Millisecond,
		}))
	}
	rng := rand.New(rand.NewSource(5))
	var exits []sim.Time
	for i := 0; i < 120; i++ {
		cluster := rng.Intn(4)
		path := []*netem.Pipe{pipes[2*cluster]}
		if rng.Intn(2) == 0 {
			path = append(path, pipes[2*cluster+1])
		}
		size := 10_000 + rng.Intn(1<<19)
		at := sim.Time(rng.Int63n(int64(4 * time.Second)))
		k.At(at, func() {
			m.Transfer(k.Now(), size, path, k.Rand(), func(e sim.Time, ok bool) {
				exits = append(exits, e)
			})
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := log.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String(), exits, m.Stats()
}

// workloadDigest is the SHA-256 of a rendered trace followed by its
// exit times, one per line.
func workloadDigest(tr string, exits []sim.Time) string {
	h := sha256.New()
	io.WriteString(h, tr)
	for _, e := range exits {
		fmt.Fprintln(h, int64(e))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// batchedWorkloadDigest pins batchedWorkload's trace and exit times
// across builds: a solver change that is meant to be trace-neutral must
// reproduce it bit for bit.
const batchedWorkloadDigest = "e3cc379045b10b30d1c5e4edfd86f86946ccfdab22b2e54ced832eefdd16b86f"

// TestBatchDeterminismAcrossRuns: for a fixed window, two runs of the
// same multi-component workload give the same rendered trace, the same
// exit times and the same counters, and the trace and exit times match
// the committed digest.
func TestBatchDeterminismAcrossRuns(t *testing.T) {
	refTrace, refExits, refStats := batchedWorkload(t)
	if refStats.Flushes == 0 || refStats.Solves == 0 {
		t.Fatalf("workload never flushed (stats %+v); determinism check vacuous", refStats)
	}
	if got := workloadDigest(refTrace, refExits); got != batchedWorkloadDigest {
		t.Errorf("trace and exits digest %s, pinned %s", got, batchedWorkloadDigest)
	}
	tr, exits, stats := batchedWorkload(t)
	if tr != refTrace {
		t.Fatal("trace differs between two runs")
	}
	if len(exits) != len(refExits) {
		t.Fatalf("%d exits, want %d", len(exits), len(refExits))
	}
	for i := range exits {
		if exits[i] != refExits[i] {
			t.Fatalf("exit %d = %v, want %v", i, exits[i], refExits[i])
		}
	}
	if stats != refStats {
		t.Fatalf("stats %+v, want %+v", stats, refStats)
	}
}

// TestBatchCoalescesSolves: several arrivals inside one window drain in
// a single solve at the window boundary, and the flows still split the
// link fairly from that instant.
func TestBatchCoalescesSolves(t *testing.T) {
	k := sim.New(1)
	m := NewWithConfig(k, Config{Window: 100 * time.Millisecond})
	p := netem.NewPipe(k, "p", netem.PipeConfig{Bandwidth: 4 * netem.Mbps})
	for i := 0; i < 4; i++ {
		at := sim.Time(int64(i) * int64(10*time.Millisecond))
		k.At(at, func() {
			m.Transfer(k.Now(), 1<<20, []*netem.Pipe{p}, k.Rand(), func(sim.Time, bool) {})
		})
	}
	// Just past the boundary (first arrival at 0 + 100 ms window): one
	// flush, one solve, all four flows leveled at cap/4.
	k.At(sim.Time(int64(101*time.Millisecond)), func() {
		st := m.Stats()
		if st.Flushes != 1 || st.Solves != 1 {
			t.Errorf("at boundary: %d flushes / %d solves, want 1 / 1", st.Flushes, st.Solves)
		}
		if st.Batched != 4 {
			t.Errorf("batched events = %d, want 4", st.Batched)
		}
		for _, f := range m.linkOf(p).flows {
			if f.rate != mbps {
				t.Errorf("flow %d rate = %v, want %v", f.id, f.rate, mbps)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Completed != 4 {
		t.Fatalf("completed %d flows, want 4", st.Completed)
	}
}

// TestBatchedChurnSolveRatio is the incrementality bound the tentpole
// targets: a single shared bottleneck (components=1) under steady
// churn must re-level far fewer flows per churn event than the
// population, because one window's worth of churn drains in one solve.
func TestBatchedChurnSolveRatio(t *testing.T) {
	const population = 256
	k := sim.New(3)
	m := NewWithConfig(k, Config{Window: 250 * time.Millisecond})
	p := netem.NewPipe(k, "shared", netem.PipeConfig{Bandwidth: 100 * netem.Mbps})
	rng := rand.New(rand.NewSource(42))
	churned := 0
	var spawn func()
	spawn = func() {
		size := 32*1024 + rng.Intn(256*1024)
		m.Transfer(k.Now(), size, []*netem.Pipe{p}, k.Rand(), func(sim.Time, bool) {
			if churned++; churned < 2000 {
				spawn()
			}
		})
	}
	for i := 0; i < population; i++ {
		spawn()
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	ratio := float64(st.SolvedFlows) / float64(st.Started+st.Completed)
	// Per-event solving re-levels the whole population every churn op
	// (ratio ≈ population/2 ≈ 128 here, counting both edges); batching
	// amortizes one full re-level over a window's worth of events.
	if ratio > population/4 {
		t.Fatalf("SolvedFlows/(Started+Completed) = %.1f, want <= %d (stats %+v)",
			ratio, population/4, st)
	}
	if st.Flushes == 0 {
		t.Fatal("no flushes recorded")
	}
	t.Logf("ratio %.1f flows/churn-op over %d flushes", ratio, st.Flushes)
}

// TestReconfigureFlushesBatch: a pipe reconfiguration mid-window does
// not wait for the boundary — the batch drains immediately, so the
// re-solve under the new capacity observes settled rates and pending
// arrivals get leveled at the reconfigure instant.
func TestReconfigureFlushesBatch(t *testing.T) {
	k := sim.New(1)
	m := NewWithConfig(k, Config{Window: 10 * time.Second})
	p := netem.NewPipe(k, "p", netem.PipeConfig{Bandwidth: 8 * netem.Mbps})
	start(t, m, k, 1<<20, p)
	start(t, m, k, 1<<20, p)
	k.At(sim.Time(int64(time.Second)), func() {
		if st := m.Stats(); st.Flushes != 0 {
			t.Errorf("flushed before the window with no reconfigure: %+v", st)
		}
		cfg := p.Config()
		cfg.Bandwidth = 2 * netem.Mbps
		p.Reconfigure(cfg)
		m.PipeReconfigured(p)
		st := m.Stats()
		if st.Flushes != 1 {
			t.Errorf("reconfigure flushed %d batches, want 1", st.Flushes)
		}
		for _, f := range m.linkOf(p).flows {
			if f.rate != mbps {
				t.Errorf("flow %d rate = %v after degrade, want %v", f.id, f.rate, mbps)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Completed != 2 {
		t.Fatalf("completed %d flows, want 2", st.Completed)
	}
}

// runFlowChurn drives the flow engine through steady-state churn of
// ~1k concurrent flows: every completion immediately starts a
// replacement, so each op is one departure plus one arrival.
// components=1 puts the whole population on one shared bottleneck;
// components=64 spreads it across disjoint bottlenecks, where the
// component scoping keeps each re-solve at ~16 flows.
func runFlowChurn(b *testing.B, comps int, window time.Duration) {
	const population = 1024
	k := sim.New(1)
	m := NewWithConfig(k, Config{Window: window})
	rng := rand.New(rand.NewSource(1))
	links := make([]*netem.Pipe, comps)
	for i := range links {
		links[i] = netem.NewPipe(k, fmt.Sprintf("l%d", i),
			netem.PipeConfig{Bandwidth: 100 * netem.Mbps})
	}
	completed := 0
	var spawn func(i int)
	spawn = func(i int) {
		size := 32*1024 + rng.Intn(256*1024)
		m.Transfer(k.Now(), size, []*netem.Pipe{links[i%comps]}, k.Rand(),
			func(_ sim.Time, ok bool) {
				if !ok {
					b.Fail()
					return
				}
				completed++
				if completed < b.N {
					spawn(i)
				} else {
					k.Stop()
				}
			})
	}
	for i := 0; i < population; i++ {
		spawn(i)
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	st := m.Stats()
	b.ReportMetric(float64(st.SolvedFlows)/float64(st.Started+st.Completed), "flows/churn-op")
}

// BenchmarkFlowChurn measures the batched max-min solver (DESIGN.md
// decisions 5 and 8) on the fast path: a 250 ms re-rate window drains
// each window's worth of churn in one solve, so per-churn-event work
// tracks the affected component and the batching factor, not the
// population. flows/churn-op is the incrementality measure.
func BenchmarkFlowChurn(b *testing.B) {
	for _, comps := range []int{1, 64} {
		b.Run(fmt.Sprintf("components=%d", comps), func(b *testing.B) {
			runFlowChurn(b, comps, 250*time.Millisecond)
		})
	}
}

// BenchmarkFlowChurnWindow sweeps the batch window on the shared
// bottleneck (the solver's worst case): window=0 is the per-event
// path, the positive windows show how the amortization scales.
func BenchmarkFlowChurnWindow(b *testing.B) {
	for _, window := range []time.Duration{0, 50 * time.Millisecond, 250 * time.Millisecond} {
		b.Run(fmt.Sprintf("window=%s", window), func(b *testing.B) {
			runFlowChurn(b, 1, window)
		})
	}
}

// chainWorkload builds a chain of six pipes, each link i carrying a
// local flow and a flow shared with link i+1, with capacities rising
// along the chain so every link is the bottleneck of its own two flows.
// Upgrading the first link mid-run cascades: each incremental pass
// finds the next link's frozen flows inconsistent and grows the
// affected set by one link, so the flush reaches maxIncFills and falls
// back to re-leveling the whole component from scratch. It returns the
// rendered trace and the exit times.
func chainWorkload(t *testing.T) (string, []sim.Time) {
	t.Helper()
	k := sim.New(13)
	m := NewWithConfig(k, Config{Window: 20 * time.Millisecond})
	log := trace.New(0)
	m.SetTrace(log)
	var pipes []*netem.Pipe
	for i, mb := range []int64{1, 3, 4, 5, 6, 7} {
		pipes = append(pipes, netem.NewPipe(k, fmt.Sprintf("L%d", i), netem.PipeConfig{
			Bandwidth: mb * netem.Mbps,
		}))
	}
	var exits []sim.Time
	record := func(e sim.Time, ok bool) { exits = append(exits, e) }
	k.At(0, func() {
		for i, p := range pipes {
			m.Transfer(k.Now(), 4<<20, []*netem.Pipe{p}, k.Rand(), record)
			if i+1 < len(pipes) {
				m.Transfer(k.Now(), 4<<20, []*netem.Pipe{p, pipes[i+1]}, k.Rand(), record)
			}
		}
	})
	k.At(sim.Time(time.Second), func() {
		cfg := pipes[0].Config()
		cfg.Bandwidth = 100 * netem.Mbps
		pipes[0].Reconfigure(cfg)
		m.PipeReconfigured(pipes[0])
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := log.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String(), exits
}

// chainWorkloadDigest pins chainWorkload's trace and exit times: the
// only pinned run whose flush falls back at maxIncFills, so the
// fallback's region and affected-set order are held bit for bit.
const chainWorkloadDigest = "99ea8ddbc8f982afaa87f4e5847436dc8e607831c89ff5720b8417c103ec6939"

// TestChainFallbackPinned: the maxIncFills fallback re-levels the
// chain to the committed trace and exit times.
func TestChainFallbackPinned(t *testing.T) {
	tr, exits := chainWorkload(t)
	if len(exits) != 11 {
		t.Fatalf("%d exits, want 11", len(exits))
	}
	if got := workloadDigest(tr, exits); got != chainWorkloadDigest {
		t.Errorf("trace and exits digest %s, pinned %s", got, chainWorkloadDigest)
	}
}

// TestWindowedFlushWorkBound: a windowed flush costs the flows it
// re-levels, not their component. A chain of 101 equal pipes carries
// ten flows over each neighbouring pair — one component of 1 000 flows,
// every flow leveled at an interior link. A flow arriving alone on the
// last pipe dirties only that pipe, whose frozen flows keep their
// rates, so the flush re-levels the newcomer and must reach no flow on
// any other pipe.
func TestWindowedFlushWorkBound(t *testing.T) {
	k := sim.New(1)
	m := NewWithConfig(k, Config{Window: 10 * time.Millisecond})
	var pipes []*netem.Pipe
	for i := 0; i <= 100; i++ {
		pipes = append(pipes, netem.NewPipe(k, fmt.Sprintf("L%d", i), netem.PipeConfig{Bandwidth: 20 * netem.Mbps}))
	}
	last := pipes[100]
	for i := 0; i < 100; i++ {
		for j := 0; j < 10; j++ {
			m.Transfer(0, 64<<20, []*netem.Pipe{pipes[i], pipes[i+1]}, k.Rand(), func(sim.Time, bool) {})
		}
	}
	m.FlushBatch()
	if st := m.Stats(); st.Started != 1000 || st.SolvedFlows != 1000 {
		t.Fatalf("stats %+v after the first flush, want 1000 flows started and leveled", st)
	}
	before := m.Stats()
	var newcomer *xfer
	k.At(sim.Time(time.Second), func() {
		m.Transfer(k.Now(), 64<<20, []*netem.Pipe{last}, k.Rand(), func(sim.Time, bool) {})
		l := m.linkOf(last)
		newcomer = l.flows[len(l.flows)-1]
	})
	k.At(sim.Time(2*time.Second), func() {
		st := m.Stats()
		if st.Flushes != before.Flushes+1 || st.SolvedFlows != before.SolvedFlows+1 {
			t.Errorf("stats %+v after the arrival, want one more flush re-leveling one flow (before %+v)", st, before)
		}
		if want := 10 * mbps; newcomer.rate != want {
			t.Errorf("newcomer rate %v, want the last pipe's slack %v", newcomer.rate, want)
		}
		beyond := 0
		for _, p := range pipes[:100] {
			beyond += m.visited(p)
		}
		if beyond != 0 {
			t.Errorf("flush reached %d flow entries off the dirty pipe, want 0", beyond)
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
