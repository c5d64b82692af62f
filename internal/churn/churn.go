// Package churn models peer arrival and departure — the defining
// stress of peer-to-peer systems and the reason an experimentation
// platform like P2PLab exists. It provides session-time distributions
// measured in deployed systems (exponential and heavy-tailed Pareto
// lifetimes, flash crowds) and a driver that applies them to any
// population of start/stoppable peers on the virtual timeline.
package churn

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Lifetime draws session or downtime durations.
type Lifetime interface {
	// Sample draws one duration.
	Sample(rng *rand.Rand) time.Duration
}

// Exponential is the memoryless session-time model.
type Exponential struct {
	MeanDuration time.Duration
}

// Sample implements Lifetime.
func (e Exponential) Sample(rng *rand.Rand) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(e.MeanDuration))
}

// Pareto is the heavy-tailed session model measured in deployed P2P
// systems (most sessions short, a few very long). Alpha must be > 1
// for a finite mean.
type Pareto struct {
	Scale time.Duration // minimum session length (x_m)
	Alpha float64
}

// Sample implements Lifetime.
func (p Pareto) Sample(rng *rand.Rand) time.Duration {
	u := rng.Float64()
	if u == 0 {
		u = 1e-12
	}
	return time.Duration(float64(p.Scale) / math.Pow(u, 1/p.Alpha))
}

// Peer is anything the churn driver can bring up and down.
type Peer interface {
	// Online starts (or restarts) the peer.
	Online(p *sim.Proc)
	// Offline stops the peer abruptly.
	Offline(p *sim.Proc)
}

// Config drives a churn process over a peer population.
type Config struct {
	// Session draws online durations.
	Session Lifetime
	// Downtime draws offline durations between sessions; nil means
	// peers never return.
	Downtime Lifetime
	// InitialDelay staggers each peer's first arrival uniformly over
	// this window (a flash crowd uses a short window).
	InitialDelay time.Duration
	// Horizon stops scheduling churn events past this virtual instant
	// (0 = unbounded).
	Horizon time.Duration
}

// Driver applies a churn process to a set of peers.
type Driver struct {
	k                    *sim.Kernel
	cfg                  Config
	arrivals, departures *obs.Counter
}

// NewDriver returns a churn driver on kernel k that counts the
// sessions it starts and ends into reg.
func NewDriver(k *sim.Kernel, reg *obs.Registry, cfg Config) *Driver {
	return &Driver{k: k, cfg: cfg,
		arrivals:   reg.Counter("p2plab_churn_arrivals_total", "arrivals", "Churn sessions started."),
		departures: reg.Counter("p2plab_churn_departures_total", "departures", "Churn sessions ended."),
	}
}

// Drive schedules the churn lifecycle for every peer: arrive after a
// uniform initial delay, stay online for a session draw, depart, stay
// offline for a downtime draw, repeat.
//
//p2p:tokenentry pre-Run setup: runs on the host goroutine before Kernel.Run, the only accessor until the run starts
func (d *Driver) Drive(peers []Peer) {
	rng := d.k.Rand()
	for i, peer := range peers {
		var delay time.Duration
		if d.cfg.InitialDelay > 0 {
			delay = time.Duration(rng.Int63n(int64(d.cfg.InitialDelay)))
		}
		d.scheduleArrival(peer, i, delay)
	}
}

func (d *Driver) pastHorizon(at sim.Time) bool {
	return d.cfg.Horizon > 0 && at > sim.Time(d.cfg.Horizon)
}

func (d *Driver) scheduleArrival(peer Peer, idx int, after time.Duration) {
	at := d.k.Now().Add(after)
	if d.pastHorizon(at) {
		return
	}
	d.k.After(after, func() {
		d.arrivals.Inc()
		d.k.Go("churn-up", func(p *sim.Proc) { peer.Online(p) })
		session := d.cfg.Session.Sample(d.k.Rand())
		d.scheduleDeparture(peer, idx, session)
	})
}

func (d *Driver) scheduleDeparture(peer Peer, idx int, after time.Duration) {
	at := d.k.Now().Add(after)
	if d.pastHorizon(at) {
		return
	}
	d.k.After(after, func() {
		d.departures.Inc()
		d.k.Go("churn-down", func(p *sim.Proc) { peer.Offline(p) })
		if d.cfg.Downtime == nil {
			return
		}
		down := d.cfg.Downtime.Sample(d.k.Rand())
		d.scheduleArrival(peer, idx, down)
	})
}
