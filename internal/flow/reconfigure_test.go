package flow

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
)

// startFlow launches one transfer over the pipe and returns a pointer
// that receives its exit instant when it completes.
func startFlow(k *sim.Kernel, m *Model, p *netem.Pipe, at sim.Time, size int) *sim.Time {
	exit := new(sim.Time)
	*exit = -1
	k.At(at, func() {
		m.Transfer(k.Now(), size, []*netem.Pipe{p}, k.Rand(), func(t sim.Time, ok bool) {
			if ok {
				*exit = t
			}
		})
	})
	return exit
}

// TestFlowReconfigureRerates: a mid-transfer bandwidth change re-rates
// the in-flight flow from the reconfigure instant — bytes already
// carried were charged at the old rate — and the completion never
// lands in the virtual past.
func TestFlowReconfigureRerates(t *testing.T) {
	const size = 125_000 // 1 Mbit -> 1 s at 1 Mbps
	cases := []struct {
		name  string
		newBW int64
		want  sim.Time
	}{
		// 0.5 Mbit left at the 0.5 s reconfigure.
		{"upgrade", 2 * netem.Mbps, sim.Time(750 * time.Millisecond)},
		{"degrade", 500 * netem.Kbps, sim.Time(1500 * time.Millisecond)},
		// An unlimited link stops constraining: the flow completes at
		// the reconfigure instant, not before it.
		{"to-unlimited", 0, sim.Time(500 * time.Millisecond)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New(1)
			m := NewWithConfig(k, Config{})
			p := netem.NewPipe(k, "p", netem.PipeConfig{Bandwidth: 1 * netem.Mbps})
			exit := startFlow(k, m, p, 0, size)
			reconfAt := sim.Time(500 * time.Millisecond)
			k.At(reconfAt, func() {
				cfg := p.Config()
				cfg.Bandwidth = tc.newBW
				p.Reconfigure(cfg)
				m.PipeReconfigured(p)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if *exit != tc.want {
				t.Errorf("flow exits at %v, want %v", *exit, tc.want)
			}
			if *exit < reconfAt {
				t.Errorf("completion scheduled in the virtual past: %v < %v", *exit, reconfAt)
			}
		})
	}
}

// TestFlowReconfigureIdenticalIsNoop: notifying the model after an
// identical-config "change" must not re-rate anything — same exit,
// no extra solver work beyond the component visit.
func TestFlowReconfigureIdenticalIsNoop(t *testing.T) {
	run := func(reconf bool) (sim.Time, Stats) {
		k := sim.New(1)
		m := NewWithConfig(k, Config{})
		p := netem.NewPipe(k, "p", netem.PipeConfig{Bandwidth: 1 * netem.Mbps})
		exit := startFlow(k, m, p, 0, 125_000)
		if reconf {
			k.At(sim.Time(300*time.Millisecond), func() {
				p.Reconfigure(p.Config()) // no-op by definition
				m.PipeReconfigured(p)
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return *exit, m.Stats()
	}
	plainExit, plainStats := run(false)
	reconfExit, reconfStats := run(true)
	if plainExit != reconfExit {
		t.Errorf("identical-config reconfigure moved the exit: %v vs %v", plainExit, reconfExit)
	}
	if reconfStats.Rerates != plainStats.Rerates {
		t.Errorf("identical-config reconfigure re-rated flows: %d vs %d",
			reconfStats.Rerates, plainStats.Rerates)
	}
}

// TestFlowReconfigureIdlePipe: reconfiguring a pipe with no flows (or
// never seen by the model) must be a no-op, not a crash.
func TestFlowReconfigureIdlePipe(t *testing.T) {
	k := sim.New(1)
	m := NewWithConfig(k, Config{})
	p := netem.NewPipe(k, "p", netem.PipeConfig{Bandwidth: 1 * netem.Mbps})
	m.PipeReconfigured(p) // never carried a flow
	if st := m.Stats(); st.Solves != 0 {
		t.Errorf("idle reconfigure solved %d components", st.Solves)
	}
}

// TestFlowReconfigureBothUnlimited: two pipes reconfigured to
// unlimited while shared flows cross them must not poison the solver
// with Inf-Inf residuals — every flow completes at the reconfigure
// instant, never in the virtual past.
func TestFlowReconfigureBothUnlimited(t *testing.T) {
	const size = 125_000
	k := sim.New(1)
	m := NewWithConfig(k, Config{})
	pa := netem.NewPipe(k, "a", netem.PipeConfig{Bandwidth: 1 * netem.Mbps})
	pb := netem.NewPipe(k, "b", netem.PipeConfig{Bandwidth: 1 * netem.Mbps})
	// f1 crosses both pipes, f2 only pb: with both unlimited, the
	// first filling iteration freezes f1 at an infinite share, and the
	// residual subtraction on pb must not turn f2's share into NaN.
	var e1, e2 *sim.Time
	k.At(0, func() {
		e1 = new(sim.Time)
		m.Transfer(0, size, []*netem.Pipe{pa, pb}, k.Rand(), func(t sim.Time, ok bool) { *e1 = t })
		e2 = new(sim.Time)
		m.Transfer(0, size, []*netem.Pipe{pb}, k.Rand(), func(t sim.Time, ok bool) { *e2 = t })
	})
	reconfAt := sim.Time(100 * time.Millisecond)
	k.At(reconfAt, func() {
		for _, p := range []*netem.Pipe{pa, pb} {
			cfg := p.Config()
			cfg.Bandwidth = 0
			p.Reconfigure(cfg)
			m.PipeReconfigured(p)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, e := range []*sim.Time{e1, e2} {
		if *e != reconfAt {
			t.Errorf("flow %d exits at %v, want %v (unlimited from the reconfigure instant)", i+1, *e, reconfAt)
		}
	}
}

// TestFlowReconfigureSharesComponent: re-rating one pipe re-solves the
// whole component: two flows sharing the pipe both speed up when it is
// upgraded.
func TestFlowReconfigureSharesComponent(t *testing.T) {
	const size = 125_000
	k := sim.New(1)
	m := NewWithConfig(k, Config{})
	p := netem.NewPipe(k, "p", netem.PipeConfig{Bandwidth: 1 * netem.Mbps})
	// Two concurrent flows: each gets 0.5 Mbps -> 2 s alone.
	e1 := startFlow(k, m, p, 0, size)
	e2 := startFlow(k, m, p, 0, size)
	// At 1 s (1 Mbit carried total, 0.5 Mbit left each), quadruple the
	// link: each flow gets 2 Mbps, finishing 0.25 s later.
	k.At(sim.Time(time.Second), func() {
		cfg := p.Config()
		cfg.Bandwidth = 4 * netem.Mbps
		p.Reconfigure(cfg)
		m.PipeReconfigured(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(1250 * time.Millisecond)
	if *e1 != want || *e2 != want {
		t.Errorf("flows exit at %v / %v, want both %v", *e1, *e2, want)
	}
}
