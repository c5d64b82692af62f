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
//   - the paper's figures and the sweep engine (internal/exp).
//
// cmd/p2plab runs the figures, scenarios and sweeps. Go code that needs
// a platform of its own calls scenario.Assemble and drives the kernel
// it returns, as examples/quickstart does.
package repro
