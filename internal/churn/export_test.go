package churn

import (
	"math/rand"
	"time"

	"repro/internal/sim"
)

// Fixed is a deterministic lifetime, for tests.
type Fixed struct {
	D time.Duration
}

// Sample implements Lifetime.
func (f Fixed) Sample(*rand.Rand) time.Duration { return f.D }

// FuncPeer adapts two closures into a Peer.
type FuncPeer struct {
	Up   func(p *sim.Proc)
	Down func(p *sim.Proc)
}

// Online implements Peer.
func (f FuncPeer) Online(p *sim.Proc) {
	if f.Up != nil {
		f.Up(p)
	}
}

// Offline implements Peer.
func (f FuncPeer) Offline(p *sim.Proc) {
	if f.Down != nil {
		f.Down(p)
	}
}
