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
// configured bandwidth, propagation delay and random loss, with an
// unbounded FIFO queue ahead of the serializer.
type Pipe struct {
	name string
	k    *sim.Kernel
	cfg  PipeConfig

	nextFree sim.Time // instant the serializer becomes idle
	stats    PipeStats

	// linkState is what an external link model keeps per pipe (the
	// flow model's fluid links); netem never reads it.
	linkState any
}

// PipeConfig is the static configuration of a pipe.
type PipeConfig struct {
	// Bandwidth in bits per second; 0 means unlimited (no serialization
	// delay).
	Bandwidth int64
	// Delay is the propagation latency added after serialization.
	Delay time.Duration
	// Loss is the probability in [0,1] that a message is dropped; 1
	// drops every message.
	Loss float64
}

// PipeStats counts pipe activity.
type PipeStats struct {
	Messages uint64 // messages accepted
	Bytes    uint64 // bytes accepted
	Lost     uint64 // messages dropped by random loss
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
// survived (false = dropped by loss).
//
// The next-free cursor is mutated immediately, which assumes callers
// schedule a given flow's messages in causal (non-decreasing) order —
// true under the sequential kernel for any single sender.
func (p *Pipe) ScheduleAt(at sim.Time, size int, rng *rand.Rand) (sim.Time, bool) {
	if p.cfg.Loss > 0 && rng.Float64() < p.cfg.Loss {
		p.stats.Lost++
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
	return done.Add(p.cfg.Delay), true
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

// AccountLoss records a message an external link model dropped by
// this pipe's random loss.
func (p *Pipe) AccountLoss() { p.stats.Lost++ }

// LinkState returns the value an external link model last attached
// with SetLinkState, or nil. It lets the model reach its per-pipe state
// from the pipe itself, with no lookup table; like the stats, it is
// touched only by the kernel driving the pipe.
func (p *Pipe) LinkState() any { return p.linkState }

// SetLinkState attaches v to the pipe for LinkState to return.
func (p *Pipe) SetLinkState(v any) { p.linkState = v }

// Common link-rate constants, in bits per second.
const (
	Kbps int64 = 1_000
	Mbps int64 = 1_000_000
	Gbps int64 = 1_000_000_000
)
