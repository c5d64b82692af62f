// Package repro is a Go reproduction of P2PLab, the lightweight
// emulation platform for studying peer-to-peer systems of Nussbaum &
// Richard ("Lightweight emulation to study peer-to-peer systems",
// Hot-P2P/IPPS 2006).
//
// The platform lives in the internal packages:
//
//   - a deterministic virtual-time kernel (internal/sim) on which all
//     experiments run reproducibly;
//   - a Dummynet/IPFW-style network emulator (internal/netem);
//   - edge-centric topologies: access-link classes and group latencies
//     (internal/topo);
//   - virtual sockets and node network identities (internal/vnet);
//   - the physical-cluster model with folding and per-node firewalls
//     (internal/virt);
//   - OS scheduler simulators for the paper's FreeBSD-vs-Linux study
//     (internal/sched);
//   - a full BitTorrent implementation (internal/bt);
//   - declarative scenarios — topology, workload, folding, timeline —
//     and the one assembler every experiment is built by
//     (internal/scenario);
//   - one driver per paper figure (internal/exp).
//
// This package adds Lab, the platform handed to user code:
//
//	lab, _ := repro.NewLab(repro.LabConfig{Seed: 1, Nodes: 2, Class: topo.DSL})
//	lab.Go("ping", func(p *sim.Proc) {
//	    rtt, _ := lab.Hosts[0].Ping(p, lab.Hosts[1].Addr(), 56, time.Second)
//	    fmt.Println("rtt:", rtt)
//	})
//	lab.Run()
package repro

import (
	"fmt"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vnet"
)

// LabConfig configures a Lab, the one-stop experiment environment.
type LabConfig struct {
	// Seed drives the deterministic random source (default 1).
	Seed int64
	// Nodes is the number of virtual nodes to create (ignored when
	// Topology is set).
	Nodes int
	// Class is the access link for Nodes-style creation (default DSL).
	Class topo.LinkClass
	// Topology, when set, populates one host per topology node instead.
	Topology *topo.Topology
	// Folding, when positive, hosts the nodes on a physical cluster at
	// this many virtual nodes per machine; the machine count follows,
	// as in a scenario spec.
	Folding int
}

// Lab is an assembled platform — kernel, network, optional cluster and
// hosts — plus the topology it was built from.
type Lab struct {
	*scenario.Assembly
	Topo *topo.Topology
}

// NewLab builds a ready-to-use experiment environment. Nodes-style
// creation is a uniform topology: hosts 10.0.0.1 up, one link class.
func NewLab(cfg LabConfig) (*Lab, error) {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	t := cfg.Topology
	if t == nil {
		class := cfg.Class
		if class.Name == "" {
			class = topo.DSL
		}
		t = topo.Uniform(cfg.Nodes, class)
	}
	a, err := scenario.Assemble(seed, t, vnet.DefaultConfig(), cfg.Folding)
	if err != nil {
		return nil, err
	}
	return &Lab{Assembly: a, Topo: t}, nil
}

// Go spawns a simulated goroutine (sugar for Kernel.Go).
func (l *Lab) Go(name string, fn func(p *sim.Proc)) { l.Kernel.Go(name, fn) }

// Run executes the lab to completion.
func (l *Lab) Run() error { return l.Kernel.Run() }

// RunFor executes the lab for at most d of virtual time.
func (l *Lab) RunFor(d time.Duration) error { return l.Kernel.RunUntil(sim.Time(d)) }

// Host returns the i-th host, for quick scripting.
func (l *Lab) Host(i int) *vnet.Host {
	if i < 0 || i >= len(l.Hosts) {
		panic(fmt.Sprintf("repro: lab has %d hosts, no index %d", len(l.Hosts), i))
	}
	return l.Hosts[i]
}
