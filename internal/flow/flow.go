// Package flow implements a flow-level max-min fair bandwidth-sharing
// link model — the contention-aware alternative to netem's Dummynet
// pipe model.
//
// The pipe model charges each message against one pipe in isolation:
// a thousand peers uploading through the same bottleneck never
// contend, every transfer sees the full configured bandwidth. This
// package models each in-flight transfer as a *fluid flow* over the
// bandwidth-constrained pipes of its path and splits every pipe's
// capacity among the flows crossing it by progressive filling (the
// classic max-min fair allocation: repeatedly saturate the most
// constrained link, freeze its flows at the fair share, and
// redistribute the slack — an alternating rescale-to-constraints loop
// in the spirit of iterative proportional fitting).
//
// The solver is *incremental* along two axes (DESIGN.md decision 8):
//
//   - Component scoping: flows and links form a bipartite graph, and a
//     flow arriving or finishing can only change the rates inside its
//     connected component of that graph. Only that component is
//     re-solved, and only the flows whose rate actually changed have
//     their completion events rescheduled (sim.Event.Reschedule moves
//     the queued event in place).
//   - Re-leveling scoping (batched mode): within a component, the
//     solver starts from the links whose residual/active ratio moved
//     (the dirty seeds), keeps the frozen allocations of flows whose
//     bottleneck is untouched, and grows the affected set only when a
//     frozen allocation is inconsistent with the recomputed levels.
//
// With Config.Window > 0 the engine additionally *batches* re-rates:
// churn events inside one virtual-time window coalesce and drain in a
// single solve per affected component at the window boundary. The
// boundary is a scheduled kernel event — not wall clock — so batching
// is exactly as deterministic as the rest of the simulation, and
// independent components of one flush may be solved on parallel
// goroutines because the results are applied sequentially in a fixed
// component order. Window = 0 (the default) re-solves at every churn
// event: the exact legacy semantics the golden traces pin.
//
// Model fidelity notes, recorded as DESIGN.md decision 5:
//
//   - A path's rate is bounded by the *minimum* constrained pipe, not
//     the sum of per-hop serializations; a single-bottleneck path is
//     byte-identical to the pipe model (the equivalence property test),
//     a multi-constrained path is faster here than store-and-forward.
//   - Loss and queue admission are evaluated once, at flow entry; the
//     queue analog is the fluid backlog (sum of the remaining bytes of
//     the flows already on the link — zero for a link no flow has ever
//     crossed). MTU-chunked pipes keep their packet granularity for
//     both loss and queue admission: per-packet loss draws with
//     all-must-survive, and each surviving packet claims queue space on
//     top of the fluid backlog, so lost packets free room exactly as
//     Pipe.schedulePackets admits them. The admitted flow is still
//     carried as one fluid flow, not store-and-forward chunks.
//   - Jitter is drawn at entry, one draw per pipe in path order — the
//     same draw sequence the pipe model makes for serialized traffic.
package flow

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// link is the fluid counterpart of one bandwidth-constrained pipe.
type link struct {
	id    uint64
	pipe  *netem.Pipe
	flows []*xfer // flows crossing the link, arrival order

	// Solver scratch, valid only inside one resolve/flush call.
	residual float64 // capacity not yet granted to frozen flows
	active   int     // unfrozen flows on the link
	level    float64 // fair share granted to flows leveled here; +Inf if never the bottleneck
	mark     uint64  // component-BFS epoch stamp
	comp     int     // component index within one flush's partition
	inR      bool    // member of the current incremental region
	dirty    bool    // queued in Model.dirty for the next flush
}

// remove deletes f preserving arrival order, so solver iteration order
// (and therefore floating-point accumulation order) is a deterministic
// function of the simulation history.
func (l *link) remove(f *xfer) {
	for i, g := range l.flows {
		if g == f {
			l.flows = append(l.flows[:i], l.flows[i+1:]...)
			return
		}
	}
}

// backlogAt returns the fluid backlog: bytes still to be carried for
// the flows currently on the link, drained to instant now. Batched
// arrivals not yet rated count at full size — they are queued.
func (l *link) backlogAt(now sim.Time) int64 {
	var bits float64
	for _, f := range l.flows {
		if r := f.remainingAt(now); r > 0 {
			bits += r
		}
	}
	return int64(bits / 8)
}

// xfer is one in-flight transfer.
type xfer struct {
	id        uint64
	links     []*link // constrained pipes of the path, deduplicated
	remaining float64 // bits left to carry, as of ratedAt
	rate      float64 // bits/sec currently allotted; <0 = not yet rated
	ratedAt   sim.Time
	prop      time.Duration // propagation + jitter appended after completion
	ev        *sim.Event    // pending completion
	done      func(exit sim.Time, ok bool)

	mark    uint64  // component-BFS epoch stamp
	newRate float64 // solver scratch; <0 = not yet frozen
	bott    *link   // link this flow was last leveled at
	inF     bool    // member of the current affected set
}

// remainingAt returns the bits left at instant now without settling.
func (f *xfer) remainingAt(now sim.Time) float64 {
	r := f.remaining
	if el := now.Sub(f.ratedAt).Seconds(); f.rate > 0 && el > 0 {
		r -= f.rate * el
	}
	return r
}

// Stats counts engine activity. SolvedFlows / (Started + Completed) is
// the average number of flows re-leveled per churn event — the
// incrementality measure the churn benchmark tracks.
type Stats struct {
	Started     uint64 // flows admitted
	Completed   uint64 // flows delivered
	Lost        uint64 // dropped by per-pipe random loss at entry
	Overflows   uint64 // dropped by fluid queue admission at entry
	Solves      uint64 // component re-solves
	SolvedFlows uint64 // flows re-leveled across all re-solves
	Rerates     uint64 // rate assignments applied (incl. initial)
	Flushes     uint64 // batch windows drained (window > 0 only)
	Batched     uint64 // churn events coalesced into batches (window > 0 only)
}

// Config tunes the engine. The zero value is the legacy per-event
// behavior.
type Config struct {
	// Window batches re-rate solves: churn events within one window of
	// virtual time coalesce and drain in a single solve per affected
	// component at the window boundary — a scheduled kernel event, so
	// batching is deterministic. New flows carry no bytes until the
	// boundary (they sit in the fluid queue), which bounds the extra
	// latency a transfer can see by one window. 0 solves at every
	// churn event, the exact semantics the golden traces pin.
	Window time.Duration
	// Workers bounds the goroutines solving independent components of
	// one flush in parallel. 0 uses GOMAXPROCS; 1 solves inline. The
	// allocation is identical for every setting: components are
	// disjoint subgraphs and results are applied in component order.
	Workers int
}

// Model is the flow-level engine. It implements netem.LinkModel; use
// it by setting vnet.Config.Model = netem.ModelFlow, or construct one
// directly with New / NewWithConfig for engine-level experiments.
type Model struct {
	k          *sim.Kernel
	cfg        Config
	links      map[*netem.Pipe]*link
	nextFlowID uint64
	nextLinkID uint64
	epoch      uint64
	tracer     *trace.Log
	stats      Stats

	// Batch state (cfg.Window > 0 only).
	dirty   []*link    // links touched since the last flush, dirtying order
	flushEv *sim.Event // pending window boundary

	// Component scratch, reused across per-event resolves.
	compLinks []*link
	compFlows []*xfer
}

// New returns an empty flow engine on kernel k with per-event solves
// (Window = 0).
func New(k *sim.Kernel) *Model {
	return NewWithConfig(k, Config{})
}

// NewWithConfig returns an empty flow engine on kernel k. A negative
// window is treated as 0.
func NewWithConfig(k *sim.Kernel, cfg Config) *Model {
	if cfg.Window < 0 {
		cfg.Window = 0
	}
	return &Model{k: k, cfg: cfg, links: make(map[*netem.Pipe]*link)}
}

// SetTrace attaches an event log: every rate change is recorded under
// the "net.flow" category, so re-allocations are observable on the
// virtual timeline like any other event.
func (m *Model) SetTrace(l *trace.Log) { m.tracer = l }

// Stats returns a snapshot of the engine counters.
func (m *Model) Stats() Stats { return m.stats }

// InFlight returns the number of active flows.
func (m *Model) InFlight() int {
	n := uint64(0)
	if m.stats.Started > m.stats.Completed {
		n = m.stats.Started - m.stats.Completed
	}
	return int(n)
}

// linkFor returns (creating on first use) the fluid link of a pipe.
func (m *Model) linkFor(p *netem.Pipe) *link {
	l := m.links[p]
	if l == nil {
		m.nextLinkID++
		l = &link{id: m.nextLinkID, pipe: p}
		m.links[p] = l
	}
	return l
}

// PipeReconfigured implements netem.ReconfigurableModel: after a
// runtime change to p's configuration the fair shares of every flow in
// p's connected component are stale, so the component is re-solved at
// the current instant and re-rated flows get rescheduled completions.
// The solver reads capacity from the pipe's live config, so no other
// bookkeeping is needed; a pipe carrying no flows is a no-op. Rates
// only ever apply from now forward — bytes already carried were settled
// at the old rate — so completions never move into the virtual past.
//
// In batched mode a reconfiguration is a synchronization point: the
// changed link's component re-levels immediately under the new
// configuration rather than waiting out the window. (vnet flushes the
// batch *before* the config changes, via FlushBatch, so coalesced
// churn settles under the configuration it happened under.)
func (m *Model) PipeReconfigured(p *netem.Pipe) {
	l := m.links[p]
	if l == nil || len(l.flows) == 0 {
		return
	}
	if m.cfg.Window > 0 {
		m.markDirty(l)
		m.FlushBatch()
		return
	}
	m.resolve(m.k.Now(), []*link{l})
}

// FlushBatch implements netem.FlushableModel: drain any batched churn
// immediately, at the current instant, instead of at the pending
// window boundary. Reconfiguration points call this so runtime changes
// observe settled, current rates. A no-op when nothing is pending.
func (m *Model) FlushBatch() {
	if m.flushEv != nil {
		m.flushEv.Cancel()
		m.flushEv = nil
	}
	m.flush()
}

// Transfer implements netem.LinkModel: admit the message (loss and
// fluid-queue checks per pipe, in path order), then run it as a flow
// over the path's constrained pipes. A path with no constrained pipe
// completes synchronously after pure propagation, mirroring the pipe
// model's inline fast path.
func (m *Model) Transfer(at sim.Time, size int, path []*netem.Pipe, rng *rand.Rand, done func(sim.Time, bool)) {
	var prop time.Duration
	var links []*link
	for _, p := range path {
		cfg := p.Config()
		if !m.admit(at, size, p, cfg, rng) {
			done(0, false)
			return
		}
		prop += cfg.Delay
		if cfg.Jitter > 0 {
			prop += time.Duration(rng.Int63n(int64(cfg.Jitter)))
		}
		if cfg.Bandwidth > 0 {
			l := m.linkFor(p)
			dup := false
			for _, seen := range links {
				if seen == l {
					dup = true // a pipe listed twice constrains the flow once
					break
				}
			}
			if !dup {
				links = append(links, l)
			}
		}
	}
	for _, p := range path {
		p.AccountTransfer(size)
	}
	if len(links) == 0 {
		done(at.Add(prop), true)
		return
	}
	m.nextFlowID++
	f := &xfer{
		id:        m.nextFlowID,
		links:     links,
		remaining: float64(int64(size) * 8),
		rate:      -1,
		newRate:   -1,
		ratedAt:   at,
		prop:      prop,
		done:      done,
	}
	for _, l := range links {
		l.flows = append(l.flows, f)
	}
	m.stats.Started++
	if m.cfg.Window > 0 {
		m.stats.Batched++
		for _, l := range links {
			m.markDirty(l)
		}
		m.armFlush(at)
		return
	}
	m.resolve(at, links)
}

// admit runs one pipe's entry checks (loss, then fluid-queue) and
// accounts a failure; it reports whether the message survived. The
// backlog is a function of the link's *current* flows only — a pipe no
// flow has ever crossed has an empty backlog, but a message larger
// than the queue bound is still refused on it (admission depends on
// state, never on history).
func (m *Model) admit(at sim.Time, size int, p *netem.Pipe, cfg netem.PipeConfig, rng *rand.Rand) bool {
	queued := cfg.Bandwidth > 0 && cfg.QueueBytes > 0
	if cfg.MTU > 0 && size > cfg.MTU && (cfg.Loss > 0 || queued) {
		// Packet-granularity admission, chunk for chunk the verdict of
		// Pipe.schedulePackets for a message arriving at one instant:
		// every packet draws its own loss verdict, and each surviving
		// packet claims queue space on top of the fluid backlog — lost
		// packets claim none, so a lossy pipe can admit a message the
		// whole-size check would tail-drop. The message survives only
		// if every packet does. The loss-draw sequence matches both the
		// pipe model and this package's previous per-packet loss loop.
		var backlog int64
		if queued {
			if l := m.links[p]; l != nil {
				backlog = l.backlogAt(at)
			}
		}
		lost, overflowed := false, false
		var admitted int64
		for sent := 0; sent < size; sent += cfg.MTU {
			chunk := size - sent
			if chunk > cfg.MTU {
				chunk = cfg.MTU
			}
			if cfg.Loss > 0 && rng.Float64() < cfg.Loss {
				lost = true
				continue
			}
			if queued {
				if backlog+admitted+int64(chunk) > cfg.QueueBytes {
					overflowed = true
					continue
				}
				admitted += int64(chunk)
			}
		}
		if lost {
			m.stats.Lost++
			p.AccountDrop(false)
			return false
		}
		if overflowed {
			m.stats.Overflows++
			p.AccountDrop(true)
			return false
		}
		return true
	}
	if cfg.Loss > 0 && rng.Float64() < cfg.Loss {
		m.stats.Lost++
		p.AccountDrop(false)
		return false
	}
	if queued {
		var backlog int64
		if l := m.links[p]; l != nil {
			backlog = l.backlogAt(at)
		}
		if backlog+int64(size) > cfg.QueueBytes {
			m.stats.Overflows++
			p.AccountDrop(true)
			return false
		}
	}
	return true
}

// complete fires when a flow's last byte is carried: detach it,
// re-solve the component it leaves behind (its peers speed up), and
// deliver after the accumulated propagation. In batched mode delivery
// is still exact — only the peers' speed-up waits for the window
// boundary, at their current (conservative) rates.
func (m *Model) complete(f *xfer) {
	now := m.k.Now()
	f.ev = nil
	for _, l := range f.links {
		l.remove(f)
	}
	m.stats.Completed++
	if m.tracer != nil {
		m.tracer.FlowDone(now, f.links[0].pipe.Name(), f.id)
	}
	if m.cfg.Window > 0 {
		m.stats.Batched++
		for _, l := range f.links {
			m.markDirty(l)
		}
		m.armFlush(now)
		f.done(now.Add(f.prop), true)
		return
	}
	m.resolve(now, f.links)
	f.done(now.Add(f.prop), true)
}

// markDirty queues l for the next batch flush, once.
func (m *Model) markDirty(l *link) {
	if !l.dirty {
		l.dirty = true
		m.dirty = append(m.dirty, l)
	}
}

// armFlush schedules the batch boundary one window after the first
// event of the batch. The boundary is a kernel event, so batching is
// as deterministic as any other scheduled work: same history, same
// flush instants, same solves.
func (m *Model) armFlush(at sim.Time) {
	if m.flushEv == nil {
		m.flushEv = m.k.At(at.Add(m.cfg.Window), m.flush)
	}
}

// flush drains the pending batch: partition the dirty links into
// connected components, incrementally re-level each (in parallel when
// there are several), and apply the new allocations sequentially in
// component order — which keeps the outcome independent of the worker
// count.
func (m *Model) flush() {
	m.flushEv = nil
	if len(m.dirty) == 0 {
		return
	}
	seeds := m.dirty
	m.dirty = nil
	for _, l := range seeds {
		l.dirty = false
	}
	m.stats.Flushes++
	now := m.k.Now()
	comps := m.partition(seeds)
	m.solveComponents(comps)
	for _, c := range comps {
		m.stats.Solves++
		m.stats.SolvedFlows += uint64(len(c.aff))
		m.apply(now, c.aff)
		for _, f := range c.aff {
			f.inF = false
		}
		for _, l := range c.region {
			l.inR = false
		}
	}
}

// component is one connected dirty region drained by a flush.
type component struct {
	links []*link // full component, BFS order over the bipartite graph
	flows []*xfer // full component, BFS order
	seeds []*link // dirty links, in global dirtying order

	// solve output.
	region []*link // links re-leveled (levels in link.level)
	aff    []*xfer // flows re-leveled (rates in xfer.newRate)
}

// partition groups the dirty links of one flush into connected
// components of the links↔flows bipartite graph. Seed order (global
// dirtying order) fixes both the component order and each component's
// BFS order, so the result is deterministic.
func (m *Model) partition(seeds []*link) []*component {
	m.epoch++
	ep := m.epoch
	var comps []*component
	for _, seed := range seeds {
		if seed.mark == ep {
			comps[seed.comp].seeds = append(comps[seed.comp].seeds, seed)
			continue
		}
		c := &component{}
		seed.mark = ep
		seed.comp = len(comps)
		c.seeds = append(c.seeds, seed)
		c.links = append(c.links, seed)
		for i := 0; i < len(c.links); i++ {
			for _, f := range c.links[i].flows {
				if f.mark == ep {
					continue
				}
				f.mark = ep
				c.flows = append(c.flows, f)
				for _, l2 := range f.links {
					if l2.mark != ep {
						l2.mark = ep
						l2.comp = seed.comp
						c.links = append(c.links, l2)
					}
				}
			}
		}
		comps = append(comps, c)
	}
	return comps
}

// solveComponents runs component.solve for every component, striding
// them across up to cfg.Workers goroutines. Components are disjoint
// subgraphs, so workers share no mutable state; results land in the
// per-component structs and are applied sequentially by the caller.
//
//lint:allow kernelgo documented boundary: the solver pool runs between kernel events (virtual time frozen), joins before returning, and workers share no state — deterministic regardless of interleaving
func (m *Model) solveComponents(comps []*component) {
	workers := m.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(comps) {
		workers = len(comps)
	}
	if workers <= 1 {
		for _, c := range comps {
			c.solve()
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(comps); i += workers {
				comps[i].solve()
			}
		}(w)
	}
	wg.Wait()
}

const (
	// rateEps is the relative slack separating a genuine rate change
	// from floating-point noise when the incremental solver decides
	// whether a frozen allocation is still consistent with the new
	// levels.
	rateEps = 1e-9
	// absEps is the absolute bandwidth slack (bits/sec) below which
	// leftover capacity is not worth re-leveling for — far below any
	// configurable rate.
	absEps = 1e-6
	// maxIncFills bounds the grow-and-refill passes before solve falls
	// back to a from-scratch re-level of the whole component.
	maxIncFills = 3
)

// solve computes the new max-min allocation for the component,
// re-leveling as few flows as the dirty seeds allow. It starts from
// the flows that must move — batched arrivals not yet rated, and flows
// bottlenecked on a dirty link — fills that region with every other
// allocation frozen, then grows the affected set wherever a frozen
// allocation is inconsistent with the recomputed levels: it exceeds
// the new level of a link it crosses (squeezing the flows leveled
// there), its links are oversubscribed, or its own bottleneck now has
// room for it to rise. The affected set grows strictly, so the loop
// terminates; past maxIncFills passes it falls back to a from-scratch
// re-level of the whole component.
func (c *component) solve() {
	if len(c.flows) == 0 {
		return
	}
	addLink := func(l *link) {
		if !l.inR {
			l.inR = true
			c.region = append(c.region, l)
		}
	}
	addFlow := func(f *xfer) {
		if !f.inF {
			f.inF = true
			c.aff = append(c.aff, f)
			for _, l := range f.links {
				addLink(l)
			}
		}
	}
	for _, l := range c.seeds {
		addLink(l)
	}
	for _, l := range c.seeds {
		for _, f := range l.flows {
			if f.rate < 0 || f.bott == l {
				addFlow(f)
			}
		}
	}
	for pass := 0; ; pass++ {
		if pass == maxIncFills || len(c.aff) == len(c.flows) {
			// Incrementality stopped paying: re-level the whole
			// component from scratch (the exact legacy solve).
			for _, l := range c.links {
				addLink(l)
			}
			for _, f := range c.flows {
				addFlow(f)
			}
			fill(c.region, c.aff)
			return
		}
		fill(c.region, c.aff)
		grew := false
		n := len(c.region)
		for i := 0; i < n; i++ {
			l := c.region[i]
			// Oversubscribed: the frozen flows alone exceed the link's
			// capacity (a degrade, or affected flows that rose into
			// them) — all of them must re-level.
			over := false
			if bw := l.pipe.Config().Bandwidth; bw > 0 {
				over = l.residual < -(float64(bw)*rateEps + absEps)
			}
			for _, g := range l.flows {
				if g.inF {
					continue
				}
				if over || g.rate < 0 || g.rate > l.level*(1+rateEps) {
					addFlow(g)
					grew = true
					continue
				}
				if g.bott != l || math.IsInf(g.rate, 1) {
					continue
				}
				if lvl := l.level; math.IsInf(lvl, 1) {
					// g's own bottleneck was not leveled this fill but
					// has slack left over: g can rise.
					if l.residual > g.rate*rateEps+absEps {
						addFlow(g)
						grew = true
					}
				} else if lvl > g.rate*(1+rateEps) {
					addFlow(g)
					grew = true
				}
			}
		}
		if !grew {
			return
		}
	}
}

// resolve recomputes the max-min fair allocation of the connected
// component containing the seed links, by progressive filling, and
// applies the result. Links and flows outside the component are never
// visited. This is the per-event path (Window = 0) and always
// re-levels the whole component.
func (m *Model) resolve(now sim.Time, seeds []*link) {
	m.stats.Solves++

	// Component discovery: BFS over the links↔flows bipartite graph.
	// Epoch stamps avoid clearing; traversal order (seed order, then
	// each link's arrival-ordered flow list) is deterministic.
	links := m.compLinks[:0]
	flows := m.compFlows[:0]
	m.epoch++
	ep := m.epoch
	for _, l := range seeds {
		if l.mark != ep {
			l.mark = ep
			links = append(links, l)
		}
	}
	for i := 0; i < len(links); i++ {
		for _, f := range links[i].flows {
			if f.mark == ep {
				continue
			}
			f.mark = ep
			f.inF = true
			flows = append(flows, f)
			for _, l2 := range f.links {
				if l2.mark != ep {
					l2.mark = ep
					links = append(links, l2)
				}
			}
		}
	}
	m.compLinks, m.compFlows = links, flows // keep grown capacity
	m.stats.SolvedFlows += uint64(len(flows))
	if len(flows) == 0 {
		return
	}

	fill(links, flows)
	for _, f := range flows {
		f.inF = false
	}
	m.apply(now, flows)
}

// fill runs progressive filling over the region links R for the
// affected flows F: find the most constrained link (smallest fair
// share among links with unfrozen affected flows), freeze its flows at
// that share, subtract the share from every link they cross, repeat.
// Each iteration saturates at least one link, so the loop runs at most
// len(R) times.
//
// Flows outside F are frozen: their current rates are subtracted from
// their links' capacity up front and never revisited, which is what
// makes a partial re-level cost only the affected region. With F
// covering the whole component there is nothing to freeze and this is
// the classic from-scratch progressive filling.
//
// Outputs: each affected flow's allocation in newRate and its
// bottleneck in bott; each region link's fair-share level in level
// (+Inf if it never constrained anyone) and leftover capacity in
// residual (negative when frozen flows oversubscribe it).
func fill(R []*link, F []*xfer) {
	for _, l := range R {
		// A pipe reconfigured to unlimited (<=0) mid-run stops
		// constraining the flows it still carries: infinite residual
		// keeps it from ever being the bottleneck.
		if bw := l.pipe.Config().Bandwidth; bw <= 0 {
			l.residual = math.Inf(1)
		} else {
			l.residual = float64(bw)
		}
		l.level = math.Inf(1)
		l.active = 0
		for _, f := range l.flows {
			if f.inF {
				l.active++
			} else if f.rate > 0 {
				l.residual -= f.rate
			}
		}
	}
	for _, f := range F {
		f.newRate = -1
	}
	unfrozen := len(F)
	for unfrozen > 0 {
		var bott *link
		var share float64
		for _, l := range R {
			if l.active == 0 {
				continue
			}
			if s := l.residual / float64(l.active); bott == nil || s < share {
				bott, share = l, s
			}
		}
		if bott == nil {
			break // unreachable: every affected flow crosses a region link
		}
		if share < 0 {
			share = 0 // clamp float underflow of a saturated residual
		}
		bott.level = share
		for _, f := range bott.flows {
			if !f.inF || f.newRate >= 0 {
				continue
			}
			f.newRate = share
			f.bott = bott
			unfrozen--
			for _, l2 := range f.links {
				// An infinite share means every remaining active link
				// is unlimited (a finite one would have been a smaller
				// bottleneck); skip the subtraction — Inf-Inf is NaN,
				// which would poison later iterations' shares.
				if !math.IsInf(share, 1) {
					l2.residual -= share
				}
				l2.active--
			}
		}
	}
}

// apply settles and reschedules every affected flow whose allocation
// changed. A flow whose recomputed rate is bit-identical keeps its
// pending completion event untouched — together with component scoping
// and re-leveling scoping this is what makes churn cost proportional
// to the affected bottleneck, not the population.
func (m *Model) apply(now sim.Time, flows []*xfer) {
	for _, f := range flows {
		if f.newRate == f.rate {
			continue
		}
		if el := now.Sub(f.ratedAt).Seconds(); f.rate > 0 && el > 0 {
			// el > 0 also keeps an infinite rate (a link reconfigured
			// to unlimited) from producing Inf*0 = NaN.
			f.remaining -= f.rate * el
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		old := f.rate
		f.rate = f.newRate
		f.ratedAt = now
		at := now.Add(durBits(f.remaining, f.rate))
		if f.ev == nil {
			ff := f
			f.ev = m.k.At(at, func() { m.complete(ff) })
		} else {
			f.ev.Reschedule(at)
		}
		m.stats.Rerates++
		if m.tracer != nil {
			if old < 0 {
				m.tracer.FlowStart(now, f.links[0].pipe.Name(), f.id, f.rate, len(f.links))
			} else {
				m.tracer.FlowRerate(now, f.links[0].pipe.Name(), f.id, old, f.rate)
			}
		}
	}
}

// maxDur bounds a completion delay so a degenerate zero rate schedules
// far-future instead of overflowing the timeline.
const maxDur = time.Duration(math.MaxInt64 / 4)

// durBits returns the time to carry bits at rate bits/sec. The
// expression matches netem's Pipe.serialization exactly, which is what
// makes an uncontended single-bottleneck flow byte-identical to the
// pipe model.
func durBits(bits, rate float64) time.Duration {
	if !(bits > 0) { // also catches NaN
		return 0
	}
	if !(rate > 0) { // also catches NaN: a poisoned rate must never
		return maxDur // schedule into the virtual past
	}
	s := bits / rate * float64(time.Second)
	if s >= float64(maxDur) {
		return maxDur
	}
	return time.Duration(s)
}
