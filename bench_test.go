package repro

// One benchmark per table/figure of the paper (see DESIGN.md's
// per-experiment index), plus ablation benchmarks for the design
// decisions DESIGN.md calls out. Swarm benchmarks run scaled-down
// configurations per iteration so `go test -bench=.` stays tractable;
// cmd/p2plab regenerates the full-size figures.

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/bt"
	"repro/internal/exp"
	"repro/internal/flow"
	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
)

// BenchmarkFig1SchedulerScaling runs the Fig 1 workload (1000
// concurrent CPU-bound processes) under each scheduler model.
func BenchmarkFig1SchedulerScaling(b *testing.B) {
	for _, kind := range sched.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sched.DefaultConfig(kind)
				res := sched.Run(cfg, sched.CPUBoundJobs(1000))
				if res.AvgExecTime() < time.Second {
					b.Fatal("implausible result")
				}
			}
		})
	}
}

// BenchmarkFig2MemoryPressure runs the Fig 2 workload (50
// memory-intensive processes, 2× RAM overcommit) under each scheduler.
func BenchmarkFig2MemoryPressure(b *testing.B) {
	for _, kind := range sched.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sched.DefaultConfig(kind)
				res := sched.Run(cfg, sched.MemoryJobs(50))
				if !res.SwapUsed {
					b.Fatal("expected swap")
				}
			}
		})
	}
}

// BenchmarkFig3Fairness runs the Fig 3 workload (100 concurrent 5 s
// processes) and builds the completion CDF.
func BenchmarkFig3Fairness(b *testing.B) {
	for _, kind := range sched.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := sched.DefaultConfig(kind)
				res := sched.Run(cfg, sched.FairnessJobs(100))
				if len(res.FinishTimes()) != 100 {
					b.Fatal("missing finishers")
				}
			}
		})
	}
}

// BenchmarkBindInterception measures the emulated connect/close cycle
// with and without the BINDIP libc interception (the paper's
// 10.22 µs vs 10.79 µs microbenchmark).
func BenchmarkBindInterception(b *testing.B) {
	for _, intercept := range []bool{false, true} {
		name := "plain"
		if intercept {
			name = "intercepted"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := exp.BindOverhead()
				if err != nil {
					b.Fatal(err)
				}
				if intercept && res.Intercepted <= res.Plain {
					b.Fatal("interception should cost more")
				}
			}
		})
	}
}

// BenchmarkFig6RuleScaling measures the real CPU cost of the linear
// IPFW-style rule scan at the paper's table sizes — the Go benchmark
// shows the same linear artifact the paper measured with ping.
func BenchmarkFig6RuleScaling(b *testing.B) {
	src := ip.MustParseAddr("10.0.0.1")
	dst := ip.MustParseAddr("10.0.0.2")
	for _, rules := range []int{100, 1000, 10000, 50000} {
		rs := netem.NewFillerTable(rules, netem.ClassifierLinear)
		b.Run(fmt.Sprintf("rules=%d", rules), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := rs.Eval(src, dst)
				if v.Visited != rules {
					b.Fatal("scan short-circuited")
				}
			}
		})
	}
}

// BenchmarkFig6RuleScalingIndexed is the ablation: the hash-indexed
// classifier IPFW could not offer stays O(1) as the table grows.
func BenchmarkFig6RuleScalingIndexed(b *testing.B) {
	src := ip.MustParseAddr("10.0.0.1")
	dst := ip.MustParseAddr("10.0.0.2")
	for _, rules := range []int{100, 1000, 10000, 50000} {
		rs := netem.NewRuleSet()
		rs.AddCount(ip.NewPrefix(src, 32), ip.Prefix{})
		netem.PadFiller(rs, rules)
		rs.Eval(src, dst)
		rs.SetClassifier(netem.ClassifierIndexed)
		b.Run(fmt.Sprintf("rules=%d", rules), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := rs.Eval(src, dst)
				if v.Visited > 16 {
					b.Fatal("index degenerated")
				}
			}
		})
	}
}

// BenchmarkRuleEval is the classifier comparison: one
// packet classification against a 50k-rule table through the unified
// RuleSet API, under the linear scan and under the incrementally
// maintained hash index. The ~1000× gap is what Config.Rules'
// Classifier option buys on the emulation hot path.
func BenchmarkRuleEval(b *testing.B) {
	src := ip.MustParseAddr("10.0.0.1")
	dst := ip.MustParseAddr("10.0.0.2")
	const rules = 50000
	for _, classifier := range []netem.Classifier{netem.ClassifierLinear, netem.ClassifierIndexed} {
		rs := netem.NewFillerTable(rules, classifier)
		rs.AddCount(ip.NewPrefix(src, 32), ip.Prefix{})
		b.Run(classifier.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := rs.Eval(src, dst)
				if len(v.Pipes) != 0 || v.Deny {
					b.Fatal("unexpected verdict")
				}
			}
		})
	}
}

// BenchmarkFig6PingSweep runs the end-to-end Fig 6 measurement (ping
// across the emulated stack with a padded firewall).
func BenchmarkFig6PingSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := exp.Fig6([]int{0, 25000, 50000}, 5, 1, netem.ClassifierLinear)
		if err != nil {
			b.Fatal(err)
		}
		if points[2].Stats.Avg < points[0].Stats.Avg {
			b.Fatal("rule cost vanished")
		}
	}
}

// BenchmarkFig7Topology builds the 2750-node Fig 7 topology on a
// 14-node cluster and measures the worked-example RTT.
func BenchmarkFig7Topology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig7(14, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.RTT < 850*time.Millisecond {
			b.Fatal("rtt below model")
		}
	}
}

// benchSwarm runs one scaled swarm per iteration and reports virtual
// seconds simulated per wall second.
func benchSwarm(b *testing.B, sp scenario.Spec) {
	b.Helper()
	var virtual time.Duration
	for i := 0; i < b.N; i++ {
		res, err := scenario.Run(&sp, scenario.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Done != res.Total {
			b.Fatal("swarm incomplete")
		}
		virtual += time.Duration(res.EndedAt)
	}
	b.ReportMetric(virtual.Seconds()/b.Elapsed().Seconds(), "virtual-s/s")
}

// BenchmarkFig8Swarm runs the Fig 8 experiment at 1/4 scale (40
// clients, 4 MiB file, same DSL links and protocol parameters).
func BenchmarkFig8Swarm(b *testing.B) {
	sp := exp.ScaleSpec(exp.Fig8Spec(), 4)
	sp.Workload.StartInterval = scenario.Duration(4 * time.Second)
	benchSwarm(b, sp)
}

// BenchmarkFig9Folding runs the folding experiment (Fig 9) at 1/4
// scale for foldings 1 and 10.
func BenchmarkFig9Folding(b *testing.B) {
	for _, folding := range []int{1, 10} {
		b.Run(fmt.Sprintf("folding=%d", folding), func(b *testing.B) {
			sp := exp.ScaleSpec(exp.Fig8Spec(), 4)
			sp.Workload.StartInterval = scenario.Duration(4 * time.Second)
			sp.Folding = folding
			benchSwarm(b, sp)
		})
	}
}

// BenchmarkFig10Scale runs the scalability experiment (Figs 10 and 11)
// at 1/16 scale: 359 clients folded 32-per-physical-node.
func BenchmarkFig10Scale(b *testing.B) {
	benchSwarm(b, exp.ScaleSpec(exp.Fig10Spec(), 16))
}

// BenchmarkFig11Completions measures building the completion-count
// series from a finished swarm (the Fig 11 post-processing).
func BenchmarkFig11Completions(b *testing.B) {
	sp := exp.ScaleSpec(exp.Fig10Spec(), 32)
	res, err := scenario.Run(&sp, scenario.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := exp.CompletionSeries(res.Completions)
		if s.Len() == 0 {
			b.Fatal("no completions")
		}
	}
}

// BenchmarkChurnSwarm runs the churn experiment (extension E3): 12 DSL
// clients, half of them churning, pull 1 MiB from 2 seeders.
func BenchmarkChurnSwarm(b *testing.B) {
	sp := scenario.Spec{
		Name:    "bench-churn",
		Horizon: scenario.Duration(6 * time.Hour),
		Groups:  []scenario.GroupSpec{{Name: "peers", Class: "dsl", Nodes: 14}},
		Workload: scenario.WorkloadSpec{
			Kind:          scenario.WorkloadChurnSwarm,
			FileSize:      1 << 20,
			Seeders:       2,
			StartInterval: scenario.Duration(2 * time.Second),
		},
	}
	for i := 0; i < b.N; i++ {
		res, err := scenario.Run(&sp, scenario.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Snapshot.Values["stable-done"] == 0 {
			b.Fatal("no completions")
		}
	}
}

// --- Ablation and substrate microbenchmarks ---

// BenchmarkKernelModes compares the two ways to schedule work on the
// virtual-time kernel (DESIGN.md decision 1): goroutine park/wake
// versus pure event callbacks.
func BenchmarkKernelModes(b *testing.B) {
	b.Run("goroutines", func(b *testing.B) {
		k := sim.New(1)
		k.Go("worker", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("events", func(b *testing.B) {
		k := sim.New(1)
		var tick func()
		n := 0
		tick = func() {
			n++
			if n < b.N {
				k.After(time.Microsecond, tick)
			}
		}
		k.After(time.Microsecond, tick)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkKernelQueues drives the kernel's event queue in the shapes
// whole runs put it in. depth=N: N outstanding timers, each re-arming
// itself at a random offset when it fires — the pipe model's steady
// state. resched: every live timer moved many times before it fires —
// the flow solver's pattern, where each solve moves the completion
// event of every re-rated flow; one op is one Reschedule. bimodal: the
// depth=1024 churn in front of a standing far-future tail (idle
// timeouts, horizon events) that the dense head must not pay for.
func BenchmarkKernelQueues(b *testing.B) {
	// churn runs `near` self-renewing timers on k until b.N have fired.
	churn := func(b *testing.B, k *sim.Kernel, near int) {
		rng := rand.New(rand.NewSource(1))
		fired := 0
		for i := 0; i < near; i++ {
			var fn func()
			fn = func() {
				fired++
				if fired+near <= b.N {
					k.After(time.Duration(1+rng.Intn(1000))*time.Microsecond, fn)
				}
			}
			k.After(time.Duration(1+rng.Intn(1000))*time.Microsecond, fn)
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		if fired < b.N && fired != near {
			b.Fatalf("fired %d events, want >= %d", fired, b.N)
		}
	}
	for _, depth := range []int{1024, 32768} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			churn(b, sim.New(1), depth)
		})
	}
	b.Run("resched/live=1000/moves=100", func(b *testing.B) {
		const live, moves = 1000, 100
		k := sim.New(1)
		rng := rand.New(rand.NewSource(1))
		evs := make([]*sim.Event, live)
		k.Go("solver", func(p *sim.Proc) {
			for done := 0; done < b.N; {
				for i := range evs {
					evs[i] = k.At(p.Now().Add(time.Hour), func() {})
				}
				// Rounds are 1 ms apart and no move lands nearer than
				// 200 ms, so nothing fires until the moves are done.
				for m := 0; m < moves && done < b.N; m++ {
					p.Sleep(time.Millisecond)
					for _, ev := range evs {
						if !ev.Reschedule(p.Now().Add(time.Duration(200+rng.Intn(800)) * time.Millisecond)) {
							b.Error("timer fired before its moves were done")
							return
						}
						done++
					}
				}
				p.Sleep(2 * time.Second)
			}
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("bimodal", func(b *testing.B) {
		k := sim.New(1)
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 32768-1024; i++ {
			k.After(time.Hour+time.Duration(rng.Intn(int(100*time.Hour))), func() {})
		}
		churn(b, k, 1024)
	})
}

// BenchmarkSweep runs a 4-cell scheduler sweep through the worker
// pool; on a multi-core runner the parallel variant should approach
// the wall time of its slowest cell.
func BenchmarkSweep(b *testing.B) {
	grid := exp.Grid{Experiment: exp.ExpSched, Peers: []int{100, 200, 300, 400}}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := exp.RunSweep(grid, workers)
				if err != nil {
					b.Fatal(err)
				}
				if res.Failed != 0 {
					b.Fatal(res.Errs())
				}
			}
		})
	}
}

// BenchmarkPipeGranularity compares message-level pipe charging
// (DESIGN.md decision 2) against packet-chunked charging (1500-byte
// MTU) for a 16 KiB block.
func BenchmarkPipeGranularity(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := netem.PipeConfig{Bandwidth: 2 * netem.Mbps, Delay: 30 * time.Millisecond}
	b.Run("message", func(b *testing.B) {
		k := sim.New(1)
		p := netem.NewPipe(k, "m", cfg)
		at := sim.Time(0)
		for i := 0; i < b.N; i++ {
			exit, _ := p.ScheduleAt(at, 16384, rng)
			at = exit
		}
	})
	b.Run("packets", func(b *testing.B) {
		k := sim.New(1)
		p := netem.NewPipe(k, "p", cfg)
		at := sim.Time(0)
		for i := 0; i < b.N; i++ {
			var exit sim.Time
			for sent := 0; sent < 16384; sent += 1500 {
				chunk := 16384 - sent
				if chunk > 1500 {
					chunk = 1500
				}
				exit, _ = p.ScheduleAt(at, chunk, rng)
			}
			at = exit
		}
	})
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
	m := flow.NewWithConfig(k, flow.Config{Window: window})
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
// population. The flows/churn-op metric is the incrementality
// measure the bench gate watches.
func BenchmarkFlowChurn(b *testing.B) {
	for _, comps := range []int{1, 64} {
		b.Run(fmt.Sprintf("components=%d", comps), func(b *testing.B) {
			runFlowChurn(b, comps, 250*time.Millisecond)
		})
	}
}

// BenchmarkFlowChurnWindow sweeps the batch window on the shared
// bottleneck (the solver's worst case): window=0 is the per-event
// legacy path, the positive windows show how the amortization scales.
func BenchmarkFlowChurnWindow(b *testing.B) {
	for _, window := range []time.Duration{0, 50 * time.Millisecond, 250 * time.Millisecond} {
		b.Run(fmt.Sprintf("window=%s", window), func(b *testing.B) {
			runFlowChurn(b, 1, window)
		})
	}
}

// BenchmarkPipeScheduleAt measures the per-message cost of the pipe
// model in isolation.
func BenchmarkPipeScheduleAt(b *testing.B) {
	k := sim.New(1)
	p := netem.NewPipe(k, "b", netem.PipeConfig{Bandwidth: netem.Gbps, Delay: time.Millisecond})
	rng := rand.New(rand.NewSource(1))
	at := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exit, _ := p.ScheduleAt(at, 1500, rng)
		at = exit
	}
}

// BenchmarkBencode measures tracker-response encoding/decoding.
func BenchmarkBencode(b *testing.B) {
	peers := make([]any, 50)
	for i := range peers {
		peers[i] = map[string]any{"ip": "10.0.0.1", "port": int64(6881)}
	}
	resp := map[string]any{"interval": int64(1800), "peers": peers}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bt.Bencode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	enc, _ := bt.Bencode(resp)
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bt.Bdecode(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPieceVerification compares real SHA-1 verification
// (MemStorage) against sparse tag verification (SparseStorage) — the
// trade-off behind DESIGN.md decision 4.
func BenchmarkPieceVerification(b *testing.B) {
	data := make([]byte, bt.DefaultPieceLength)
	rand.New(rand.NewSource(1)).Read(data)
	meta, err := bt.CreateTorrent("bench", data, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sha1", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			s := bt.NewMemStorage(meta)
			for off := 0; off < len(data); off += bt.BlockLength {
				s.WriteBlock(0, off, data[off:off+bt.BlockLength], 0)
			}
			if ok, _ := s.CompletePiece(0); !ok {
				b.Fatal("verify failed")
			}
		}
	})
	sparseMeta, _ := bt.SyntheticTorrent("bench", bt.DefaultPieceLength, 0)
	b.Run("sparse", func(b *testing.B) {
		b.SetBytes(int64(bt.DefaultPieceLength))
		for i := 0; i < b.N; i++ {
			s := bt.NewSparseStorage(sparseMeta)
			for off := 0; off < bt.DefaultPieceLength; off += bt.BlockLength {
				s.WriteBlock(0, off, nil, bt.BlockLength)
			}
			if ok, _ := s.CompletePiece(0); !ok {
				b.Fatal("verify failed")
			}
		}
	})
}

// BenchmarkPickerRarestFirst measures piece selection over a 1024-piece
// torrent with 40 known peers.
func BenchmarkPickerRarestFirst(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pk := bt.NewPicker(1024, rng)
	pk.RandomFirstThreshold = 0
	for p := 0; p < 40; p++ {
		bf := bt.NewBitfield(1024)
		for i := 0; i < 1024; i++ {
			if rng.Intn(2) == 0 {
				bf.Set(i)
			}
		}
		pk.AddBitfield(bf)
	}
	have := bt.NewBitfield(1024)
	peerHas := bt.Full(1024)
	none := func(int) bool { return false }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pk.Pick(have, peerHas, none) < 0 {
			b.Fatal("no pick")
		}
	}
}

// BenchmarkSwarmScale runs a horizon-bounded megaswarm and reports
// peers/sec (emulated peers per wall-clock second — the paper's
// headline "how many clients fit on this hardware" number, ROADMAP
// item 1) and bytes/peer (verified payload per peer inside the
// horizon, a sanity check that the swarm actually transfers instead of
// idling). The 10k point is the gate: the bt hot-loop refactor must
// hold ≥5x the pre-refactor peers/sec there.
func BenchmarkSwarmScale(b *testing.B) {
	// The swarm kernel is strictly serial and its steady-state live heap
	// is small next to its allocation rate, so the default GOGC=100
	// spends a measurable slice of the run re-marking the same client
	// state. Trading heap headroom for fewer cycles is the intended
	// deployment configuration for dedicated emulation hosts (README
	// "Megaswarm"); megaswarm applies the same setting.
	old := debug.SetGCPercent(400)
	defer debug.SetGCPercent(old)
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			sp := exp.MegaswarmSpec(n)
			for i := 0; i < b.N; i++ {
				start := time.Now()
				res, err := scenario.Run(&sp, scenario.Options{})
				if err != nil {
					b.Fatal(err)
				}
				elapsed := time.Since(start).Seconds()
				var bytes int64
				for _, prog := range res.Progress {
					if len(prog) > 0 {
						bytes += prog[len(prog)-1].Bytes
					}
				}
				if bytes == 0 {
					b.Fatal("swarm moved no data")
				}
				b.ReportMetric(float64(n)/elapsed, "peers/sec")
				b.ReportMetric(float64(bytes)/float64(n), "bytes/peer")
			}
		})
	}
}

// BenchmarkSnapshotSync runs the snapshot-sync family — the inverse of
// the megaswarm regime: 4 clients pull a 32 MiB file in 2 MiB pieces
// over 5 connections each, with a web seed behind the swarm, under the
// flow model with a 250 ms re-rate window. Variants cover the uncapped
// baseline, symmetric 256 KiB/s token-bucket caps (the limiter, not
// the link, is the bottleneck) and the seederless cold CDN fill. The
// reported virtual-s/s tracks the cost of the rate-limiter pumps and
// the web-seed request path on top of the swarm machinery.
func BenchmarkSnapshotSync(b *testing.B) {
	base := scenario.Spec{
		Name:       "bench-snapshot",
		Model:      "flow",
		FlowWindow: scenario.Duration(250 * time.Millisecond),
		Horizon:    scenario.Duration(time.Hour),
		Workload: scenario.WorkloadSpec{
			Kind:        scenario.WorkloadSnapshot,
			FileSize:    32 << 20,
			Seeders:     1,
			WebSeeds:    1,
			PieceLength: 2 << 20,
			ConnCap:     5,
		},
	}
	variants := []struct {
		name string
		mut  func(*scenario.WorkloadSpec)
	}{
		{"uncapped", func(*scenario.WorkloadSpec) {}},
		{"capped", func(w *scenario.WorkloadSpec) { w.UpRate, w.DownRate = 256<<10, 256<<10 }},
		{"coldfill", func(w *scenario.WorkloadSpec) { w.Seeders = 0 }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			sp := base
			v.mut(&sp.Workload)
			sp.Groups = []scenario.GroupSpec{{Name: "peers", Class: "fast-dsl", Nodes: sp.Workload.Seeders + 4}}
			var virtual time.Duration
			for i := 0; i < b.N; i++ {
				res, err := scenario.Run(&sp, scenario.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Done != res.Total {
					b.Fatal("snapshot sync incomplete")
				}
				virtual += time.Duration(res.EndedAt)
			}
			b.ReportMetric(virtual.Seconds()/b.Elapsed().Seconds(), "virtual-s/s")
		})
	}
}

// BenchmarkObsHot measures the obs-registry update cost paid on the
// vnet transmit path when observability is attached: a counter bump
// and a histogram observation per message-sized unit of work, plus the
// nil-instrument variant every uninstrumented run pays instead. The
// regression gate is allocs/op == 0 for all three — hot-path metric
// updates must stay pure memory writes (DESIGN.md decision 9).
func BenchmarkObsHot(b *testing.B) {
	reg := obs.NewRegistry()
	sent := reg.Counter("p2plab_net_messages_sent_total", "")
	bytes := reg.Counter("p2plab_net_bytes_delivered_total", "")
	ttfp := reg.Histogram("p2plab_bt_time_to_first_peer_seconds", "", bt.TTFPBuckets)
	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sent.Inc()
			bytes.Add(1460)
		}
	})
	b.Run("histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ttfp.Observe(float64(i&1023) / 8)
		}
	})
	b.Run("disabled", func(b *testing.B) {
		var c *obs.Counter
		var h *obs.Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
			c.Add(1460)
			h.Observe(1)
		}
	})
}
