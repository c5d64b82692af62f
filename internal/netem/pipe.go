// Package netem is the Dummynet/IPFW analog: it emulates network links
// ("pipes" limiting bandwidth, adding latency and dropping packets) and
// linearly evaluated firewall rule tables that classify traffic into
// pipes.
//
// Emulation is message-level rather than packet-level: a message of n
// bytes entering a pipe is charged n*8/bandwidth of serialization time
// against the pipe's next-free cursor, then the propagation delay. This
// is the same first-order model Dummynet implements (a token-bucket
// bandwidth limit feeding a delay line) evaluated in O(1) per message,
// which is what makes thousands-of-node swarms tractable.
package netem

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// Pipe emulates one direction of a network link, like a Dummynet pipe:
// configured bandwidth, propagation delay, random loss, and a bounded
// queue ahead of the serializer.
type Pipe struct {
	name string
	k    *sim.Kernel
	cfg  PipeConfig

	nextFree sim.Time // instant the serializer becomes idle
	stats    PipeStats
}

// PipeConfig is the static configuration of a pipe.
type PipeConfig struct {
	// Bandwidth in bits per second; 0 means unlimited (no serialization
	// delay).
	Bandwidth int64
	// Delay is the propagation latency added after serialization.
	Delay time.Duration
	// Jitter adds a uniform random variation in [0, Jitter) to each
	// message's propagation delay, like NetEm's delay jitter. Note
	// that jitter can reorder messages relative to pure FIFO delivery;
	// the reliable connection layer reorders by sequence number.
	Jitter time.Duration
	// Loss is the probability in [0,1) that a message is dropped.
	Loss float64
	// QueueBytes bounds the backlog waiting for the serializer; messages
	// arriving with a full queue are dropped (tail drop, like Dummynet's
	// bounded queue). 0 means unbounded.
	QueueBytes int64
	// MTU, when positive, charges the pipe at packet granularity: a
	// message is split into ⌈size/MTU⌉ packets, each tested for loss
	// and queue admission independently, and the message survives only
	// if every packet does (the reliable layer retransmits whole
	// messages). 0 keeps the O(1) message-level model — the ablation
	// of DESIGN.md decision 2.
	MTU int
}

// PipeStats counts pipe activity.
type PipeStats struct {
	Messages  uint64 // messages accepted
	Bytes     uint64 // bytes accepted
	Lost      uint64 // messages dropped by random loss
	Overflows uint64 // messages dropped by queue overflow
}

// NewPipe returns a pipe driven by kernel k. The name appears in
// diagnostics only.
func NewPipe(k *sim.Kernel, name string, cfg PipeConfig) *Pipe {
	if cfg.Loss < 0 || cfg.Loss > 1 {
		panic(fmt.Sprintf("netem: pipe %s: loss %v out of [0,1]", name, cfg.Loss))
	}
	return &Pipe{name: name, k: k, cfg: cfg}
}

// Name returns the pipe's diagnostic name.
func (p *Pipe) Name() string { return p.name }

// SetBandwidth reconfigures the pipe's rate; in-flight serialization
// keeps its already-computed schedule (like reconfiguring a Dummynet
// pipe at run time).
func (p *Pipe) SetBandwidth(bitsPerSec int64) { p.cfg.Bandwidth = bitsPerSec }

// Reconfigure atomically replaces the pipe's configuration at the
// current virtual instant, re-rating the in-flight cursor — Dummynet's
// runtime `pipe NN config` semantics. The bits the serializer still
// owes under the old bandwidth are re-charged at the new bandwidth, so
// the serializer frees earlier after an upgrade and later after a
// degrade; messages already past the serializer (their delivery events
// are scheduled) are not recalled. The cursor never moves into the
// virtual past, so no event derived from it can either. Reconfiguring
// to an identical configuration is a no-op.
//
// Under the flow model the pipe's cursor is idle (the fluid backlog
// lives in flow.Model); callers there must also notify the model so it
// re-solves the affected component — vnet routes both through
// Network-level reconfiguration (flow.Model.PipeReconfigured).
func (p *Pipe) Reconfigure(cfg PipeConfig) {
	if cfg.Loss < 0 || cfg.Loss > 1 {
		panic(fmt.Sprintf("netem: pipe %s: loss %v out of [0,1]", p.name, cfg.Loss))
	}
	if cfg == p.cfg {
		return
	}
	if cfg.Bandwidth != p.cfg.Bandwidth {
		now := p.k.Now()
		if p.nextFree > now {
			// Backlog still unserialized under the old rate, in bits.
			bits := p.nextFree.Sub(now).Seconds() * float64(p.cfg.Bandwidth)
			if cfg.Bandwidth <= 0 {
				p.nextFree = now // unlimited: backlog drains instantly
			} else {
				p.nextFree = now.Add(time.Duration(bits / float64(cfg.Bandwidth) * float64(time.Second)))
			}
		}
	}
	p.cfg = cfg
}

// Config returns the pipe's configuration.
func (p *Pipe) Config() PipeConfig { return p.cfg }

// Stats returns a snapshot of the pipe's counters.
func (p *Pipe) Stats() PipeStats { return p.stats }

// serialization returns the time to clock size bytes onto the wire.
func (p *Pipe) serialization(size int) time.Duration {
	if p.cfg.Bandwidth <= 0 {
		return 0
	}
	bits := int64(size) * 8
	return time.Duration(float64(bits) / float64(p.cfg.Bandwidth) * float64(time.Second))
}

// Backlog reports the bytes-equivalent currently queued ahead of the
// serializer at virtual instant now.
func (p *Pipe) Backlog(now sim.Time) int64 {
	if p.nextFree <= now || p.cfg.Bandwidth <= 0 {
		return 0
	}
	busy := p.nextFree.Sub(now)
	return int64(busy.Seconds() * float64(p.cfg.Bandwidth) / 8)
}

// ScheduleAt passes a message of size bytes through the pipe, entering at
// instant at. It returns the instant the message exits the pipe (after
// queueing, serialization and propagation) and whether the message
// survived (false = dropped by loss or queue overflow).
//
// The next-free cursor is mutated immediately, which assumes callers
// schedule a given flow's messages in causal (non-decreasing) order —
// true under the sequential kernel for any single sender.
func (p *Pipe) ScheduleAt(at sim.Time, size int, rng *rand.Rand) (sim.Time, bool) {
	if p.cfg.MTU > 0 && size > p.cfg.MTU {
		return p.schedulePackets(at, size, rng)
	}
	if p.cfg.Loss > 0 && rng.Float64() < p.cfg.Loss {
		p.stats.Lost++
		return 0, false
	}
	if p.cfg.QueueBytes > 0 && p.Backlog(at)+int64(size) > p.cfg.QueueBytes {
		p.stats.Overflows++
		return 0, false
	}
	start := at
	if p.nextFree > start {
		start = p.nextFree
	}
	done := start.Add(p.serialization(size))
	p.nextFree = done
	p.stats.Messages++
	p.stats.Bytes += uint64(size)
	return done.Add(p.propagation(rng)), true
}

// propagation returns the delay plus a jitter draw.
func (p *Pipe) propagation(rng *rand.Rand) time.Duration {
	d := p.cfg.Delay
	if p.cfg.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(p.cfg.Jitter)))
	}
	return d
}

// schedulePackets is the packet-granularity path: each MTU-sized chunk
// is admitted, lost and serialized independently. The exit instant is
// the last packet's; a single lost packet fails the whole message
// (leaving the already-serialized packets charged, like a real link
// that carried them before the loss was noticed).
func (p *Pipe) schedulePackets(at sim.Time, size int, rng *rand.Rand) (sim.Time, bool) {
	exit := at
	ok := true
	for sent := 0; sent < size; sent += p.cfg.MTU {
		chunk := size - sent
		if chunk > p.cfg.MTU {
			chunk = p.cfg.MTU
		}
		if p.cfg.Loss > 0 && rng.Float64() < p.cfg.Loss {
			p.stats.Lost++
			ok = false
			continue // later packets still occupy the wire
		}
		if p.cfg.QueueBytes > 0 && p.Backlog(at)+int64(chunk) > p.cfg.QueueBytes {
			p.stats.Overflows++
			ok = false
			continue
		}
		start := at
		if p.nextFree > start {
			start = p.nextFree
		}
		done := start.Add(p.serialization(chunk))
		p.nextFree = done
		p.stats.Bytes += uint64(chunk)
		exit = done
	}
	if !ok {
		return 0, false
	}
	p.stats.Messages++
	return exit.Add(p.propagation(rng)), true
}

// AccountTransfer records a message accepted by an external link model
// (the flow engine schedules traffic itself, off the pipe's cursor),
// keeping Messages/Bytes — and therefore Utilization — meaningful
// under either model. Note a flow-model drop charges no pipe at all,
// whereas the pipe model counts a mid-path casualty on the pipes it
// already traversed; Backlog likewise stays zero under the flow model
// (the fluid backlog lives in flow.Model).
func (p *Pipe) AccountTransfer(size int) {
	p.stats.Messages++
	p.stats.Bytes += uint64(size)
}

// AccountDrop records a message dropped by an external link model,
// against either the overflow or the random-loss counter.
func (p *Pipe) AccountDrop(overflow bool) {
	if overflow {
		p.stats.Overflows++
	} else {
		p.stats.Lost++
	}
}

// Utilization returns the fraction of the interval [from, to] during
// which the serializer was busy, computed from the bytes accepted over
// the interval: prev must be the Stats snapshot taken at instant from
// (the zero PipeStats for the start of the run). It is an aggregate
// measure, not a per-instant one. Taking the snapshot as an argument
// rather than lifetime counters is what lets per-phase callers report
// each interval's own traffic instead of everything since boot.
func (p *Pipe) Utilization(prev PipeStats, from, to sim.Time) float64 {
	if p.cfg.Bandwidth <= 0 || to <= from {
		return 0
	}
	sent := float64(p.stats.Bytes-prev.Bytes) * 8
	capacity := float64(p.cfg.Bandwidth) * to.Sub(from).Seconds()
	u := sent / capacity
	if u > 1 {
		u = 1
	}
	return u
}

// Common link-rate constants, in bits per second.
const (
	Kbps int64 = 1_000
	Mbps int64 = 1_000_000
	Gbps int64 = 1_000_000_000
)
