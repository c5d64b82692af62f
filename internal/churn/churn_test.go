package churn

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func TestExponentialMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := Exponential{MeanDuration: 100 * time.Second}
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += e.Sample(rng)
	}
	got := sum / n
	if got < 95*time.Second || got > 105*time.Second {
		t.Fatalf("empirical mean = %v, want ≈100s", got)
	}
}

func TestParetoProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Pareto{Scale: 10 * time.Second, Alpha: 2}
	const n = 20000
	var sum time.Duration
	min := time.Duration(1 << 62)
	for i := 0; i < n; i++ {
		s := p.Sample(rng)
		if s < min {
			min = s
		}
		sum += s
	}
	if min < 10*time.Second {
		t.Fatalf("Pareto sample below scale: %v", min)
	}
	// Mean = scale·α/(α−1) = 20 s.
	got := sum / n
	if got < 18*time.Second || got > 22*time.Second {
		t.Fatalf("empirical mean = %v, want ≈20s", got)
	}
}

func TestParetoSamplesPositive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Pareto{Scale: time.Second, Alpha: 1.5}
		for i := 0; i < 100; i++ {
			if p.Sample(rng) < time.Second {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFixedLifetime(t *testing.T) {
	f := Fixed{D: 5 * time.Second}
	if f.Sample(nil) != 5*time.Second {
		t.Fatal("Fixed broken")
	}
}

// countingPeer records its own session history.
type countingPeer struct {
	ups, downs int
	online     bool
	upTimes    []sim.Time
}

func (c *countingPeer) Online(p *sim.Proc) {
	c.ups++
	c.online = true
	c.upTimes = append(c.upTimes, p.Now())
}
func (c *countingPeer) Offline(p *sim.Proc) {
	c.downs++
	c.online = false
}

func TestDriverSingleSessionNoReturn(t *testing.T) {
	k := sim.New(1)
	d := NewDriver(k, Config{Session: Fixed{D: 10 * time.Second}})
	peers := []*countingPeer{{}, {}, {}}
	ps := make([]Peer, len(peers))
	for i, p := range peers {
		ps[i] = p
	}
	d.Drive(ps)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, p := range peers {
		if p.ups != 1 || p.downs != 1 {
			t.Fatalf("peer %d: ups=%d downs=%d, want 1/1", i, p.ups, p.downs)
		}
		if p.online {
			t.Fatalf("peer %d still online", i)
		}
	}
	st := d.Stats()
	if st.Arrivals != 3 || st.Departures != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDriverRepeatingSessions(t *testing.T) {
	k := sim.New(1)
	d := NewDriver(k, Config{
		Session:  Fixed{D: 10 * time.Second},
		Downtime: Fixed{D: 5 * time.Second},
		Horizon:  100 * time.Second,
	})
	peer := &countingPeer{}
	d.Drive([]Peer{peer})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Cycle = 15 s; in 100 s the peer comes up ⌈100/15⌉ ≈ 7 times.
	if peer.ups < 6 || peer.ups > 8 {
		t.Fatalf("ups = %d, want ≈7", peer.ups)
	}
	// Sessions start at 0, 15, 30, ...
	for i, at := range peer.upTimes {
		want := sim.Time(time.Duration(i) * 15 * time.Second)
		if at != want {
			t.Fatalf("session %d started at %v, want %v", i, at, want)
		}
	}
}

func TestDriverInitialDelayStaggers(t *testing.T) {
	k := sim.New(1)
	d := NewDriver(k, Config{
		Session:      Fixed{D: time.Second},
		InitialDelay: time.Minute,
	})
	peers := make([]*countingPeer, 20)
	ps := make([]Peer, 20)
	for i := range peers {
		peers[i] = &countingPeer{}
		ps[i] = peers[i]
	}
	d.Drive(ps)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	distinct := map[sim.Time]bool{}
	for _, p := range peers {
		distinct[p.upTimes[0]] = true
		if p.upTimes[0] > sim.Time(time.Minute) {
			t.Fatalf("arrival after window: %v", p.upTimes[0])
		}
	}
	if len(distinct) < 10 {
		t.Fatalf("arrivals not staggered: %d distinct times", len(distinct))
	}
}

func TestDriverHorizonStopsChurn(t *testing.T) {
	k := sim.New(1)
	d := NewDriver(k, Config{
		Session:  Fixed{D: time.Second},
		Downtime: Fixed{D: time.Second},
		Horizon:  10 * time.Second,
	})
	peer := &countingPeer{}
	d.Drive([]Peer{peer})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() > sim.Time(11*time.Second) {
		t.Fatalf("churn ran past horizon: %v", k.Now())
	}
}

func TestDriverDeterministic(t *testing.T) {
	runOnce := func() []sim.Time {
		k := sim.New(42)
		d := NewDriver(k, Config{
			Session:      Exponential{MeanDuration: 20 * time.Second},
			Downtime:     Exponential{MeanDuration: 10 * time.Second},
			InitialDelay: 30 * time.Second,
			Horizon:      5 * time.Minute,
		})
		peers := make([]*countingPeer, 10)
		ps := make([]Peer, 10)
		for i := range peers {
			peers[i] = &countingPeer{}
			ps[i] = peers[i]
		}
		d.Drive(ps)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		var all []sim.Time
		for _, p := range peers {
			all = append(all, p.upTimes...)
		}
		return all
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestFuncPeer(t *testing.T) {
	k := sim.New(1)
	ups := 0
	d := NewDriver(k, Config{Session: Fixed{D: time.Second}})
	d.Drive([]Peer{FuncPeer{Up: func(*sim.Proc) { ups++ }}})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ups != 1 {
		t.Fatalf("ups = %d", ups)
	}
	// Nil closures are fine.
	k2 := sim.New(1)
	d2 := NewDriver(k2, Config{Session: Fixed{D: time.Second}})
	d2.Drive([]Peer{FuncPeer{}})
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
}
