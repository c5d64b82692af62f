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
// Every churn event — an arrival, a departure, a pipe reconfigure —
// marks the links it touches dirty, and a flush re-levels them
// (DESIGN.md decision 8). There is one flush path:
//
//   - Region scoping: flows and links form a bipartite graph, and
//     churn can only change the rates inside the connected components
//     of its links. Nothing outside them is re-solved; only the flows
//     whose rate actually changed have their completion events
//     rescheduled (sim.Event.Reschedule moves the queued event in
//     place).
//   - Re-leveling scoping (batched mode): the solver starts from the
//     dirty links, keeps the frozen allocations of flows whose
//     bottleneck is untouched, and grows the affected set only when a
//     frozen allocation is inconsistent with the recomputed levels. It
//     walks the graph outward from the dirty links only as far as that
//     growth reaches, so a flush costs the flows it re-levels, not
//     their components; a BFS over the whole components runs only when
//     the growth gives up (maxIncFills) and the solver falls back to
//     re-leveling them from scratch.
//
// With Config.Window > 0 churn events inside one virtual-time window
// coalesce and flush once, incrementally, at the window boundary — a
// scheduled kernel event, not wall clock, so batching is exactly as
// deterministic as the rest of the simulation. Window = 0 (the
// default) flushes at every churn event, at its instant, and re-levels
// the dirty links' whole components from scratch in BFS order: the
// arithmetic the golden traces pin.
//
// Model fidelity notes, recorded as DESIGN.md decision 5:
//
//   - A path's rate is bounded by the *minimum* constrained pipe, not
//     the sum of per-hop serializations; a single-bottleneck path is
//     byte-identical to the pipe model (the equivalence property test),
//     a multi-constrained path is faster here than store-and-forward.
//   - Loss is drawn once per pipe, at flow entry and in path order; a
//     message the pipe model would lose mid-path is lost here before
//     it claims any bandwidth.
package flow

import (
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// link is the fluid counterpart of one bandwidth-constrained pipe, in
// one Model. Its fields fit one 64-byte cache line, which the solver's
// pointer chasing over links needs; the pipe reaches it through a
// pipeLink.
type link struct {
	pipe  *netem.Pipe
	flows []*xfer // flows crossing the link, arrival order

	// Solver scratch, valid only inside one flush.
	residual float64 // capacity not yet granted to frozen flows
	level    float64 // fair share granted to flows leveled here; +Inf if never the bottleneck
	active   int32   // unfrozen flows on the link
	ri       int32   // index in the region being filled, and so in Model.shares
	inR      bool    // member of Model.region
	dirty    bool    // member of Model.dirty
	stale    bool    // member of Model.stale
}

// pipeLink is one Model's link of a pipe, in the chain the pipe's
// LinkState heads: one entry per Model that ever carried a flow over
// the pipe.
type pipeLink struct {
	m    *Model
	l    *link
	next *pipeLink
}

// share is the fair share l offers its unfrozen flows: residual/active,
// or +Inf with none left — a value no other share is less than, so a
// bottleneck scan never moves to such a link.
func (l *link) share() float64 {
	if l.active == 0 {
		return math.Inf(1)
	}
	return l.residual / float64(l.active)
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

// xfer is one in-flight transfer. xfers are pooled on the Model's free
// list: the completion callback is bound once per struct, and the
// links backing array and the completion handle are reused from one
// transfer to the next, so a started flow allocates nothing.
type xfer struct {
	m          *Model
	id         uint64
	links      []*link // constrained pipes of the path, deduplicated
	remaining  float64 // bits left to carry, as of ratedAt
	rate       float64 // bits/sec currently allotted; <0 = not yet rated
	ratedAt    sim.Time
	prop       time.Duration // propagation appended after completion
	ev         sim.Event     // completion; unarmed or spent until the first rating
	completeFn func()        // bound f.complete
	done       func(exit sim.Time, ok bool)

	mark    uint64  // epoch of the last flush whose BFS reached it
	newRate float64 // solver scratch; <0 = not yet frozen
	bott    *link   // link this flow was last leveled at
	inF     bool    // member of Model.aff
}

// Stats counts engine activity. SolvedFlows / (Started + Completed) is
// the average number of flows re-leveled per churn event — the
// incrementality measure the churn benchmark tracks.
type Stats struct {
	Started     uint64 // flows admitted
	Completed   uint64 // flows delivered
	Solves      uint64 // regions re-solved: one per flush, so one per churn event at window 0
	SolvedFlows uint64 // flows re-leveled across all re-solves
	Rerates     uint64 // rate assignments applied (incl. initial)
	Flushes     uint64 // batch windows drained (window > 0 only)
	Batched     uint64 // churn events coalesced into batches (window > 0 only)
}

// Config tunes the engine. The zero value solves at every churn event,
// the schedule the golden traces pin.
type Config struct {
	// Window batches re-rate solves: churn events within one window of
	// virtual time coalesce and drain in a single incremental flush at
	// the window boundary — a scheduled kernel event, so batching is
	// deterministic. New flows carry no bytes until the boundary (they
	// sit in the fluid queue), which bounds the extra latency a
	// transfer can see by one window. 0 flushes at every churn event
	// and re-levels from scratch, the semantics the golden traces pin.
	Window time.Duration
}

// Model is the flow-level engine. Use it by setting vnet.Config.Model =
// netem.ModelFlow, or construct one directly with NewWithConfig for
// engine-level experiments.
type Model struct {
	k          *sim.Kernel
	cfg        Config
	nextFlowID uint64
	epoch      uint64
	tracer     *trace.Log
	stats      Stats
	flushEv    sim.Event // window boundary; under a window, pending exactly while dirty is non-empty
	flushFn    func()    // bound m.FlushBatch
	free       []*xfer   // pooled xfers, none on a link or armed

	// Flush scratch, reused across flushes. dirty holds the links
	// churned since the last flush, in dirtying order; a flush's BFS
	// (reach) appends every link it reaches from them, and flows every
	// flow. region and aff are the links and flows being re-leveled;
	// shares holds each region link's share during a fill, in region
	// order, and stale the links whose share a fill step changed.
	dirty  []*link
	flows  []*xfer
	region []*link
	aff    []*xfer
	shares []float64
	stale  []*link
}

// NewWithConfig returns an empty flow engine on kernel k. A negative
// window is treated as 0.
func NewWithConfig(k *sim.Kernel, cfg Config) *Model {
	if cfg.Window < 0 {
		cfg.Window = 0
	}
	m := &Model{k: k, cfg: cfg}
	m.flushFn = m.FlushBatch
	return m
}

// SetTrace attaches an event log: every rate change is recorded under
// the "net.flow" category, so re-allocations are observable on the
// virtual timeline like any other event.
func (m *Model) SetTrace(l *trace.Log) { m.tracer = l }

// Stats returns a snapshot of the engine counters.
func (m *Model) Stats() Stats { return m.stats }

// linkOf returns m's fluid link of p, or nil if m never carried a flow
// over p. It walks the pipe's chain to m's own entry: one step unless
// several Models share the pipe.
func (m *Model) linkOf(p *netem.Pipe) *link {
	for c, _ := p.LinkState().(*pipeLink); c != nil; c = c.next {
		if c.m == m {
			return c.l
		}
	}
	return nil
}

// newLink creates m's fluid link of p, on p's first flow. It is kept
// out of Transfer's frame, which a sending task holds under churn.
//
//go:noinline
func (m *Model) newLink(p *netem.Pipe) *link {
	l := &link{pipe: p}
	head, _ := p.LinkState().(*pipeLink)
	p.SetLinkState(&pipeLink{m: m, l: l, next: head})
	return l
}

// PipeReconfigured must follow every runtime change to p's
// configuration: the fair shares of every flow in p's connected
// component are stale, so p's link is marked dirty and flushed at the
// current instant, and re-rated flows get rescheduled completions.
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
	if l := m.linkOf(p); l != nil && len(l.flows) > 0 {
		m.markDirty(l)
		m.FlushBatch()
	}
}

// FlushBatch drains any batched churn immediately, at the current
// instant, instead of at the pending window boundary. Synchronization
// points — a pipe about to be reconfigured, a caller about to read
// rates — call it so they observe settled, current rates. A no-op when
// nothing is pending. It is also the boundary event's callback.
func (m *Model) FlushBatch() {
	m.flushEv.Cancel() // false when the boundary itself is firing, or none is pending
	m.flush(m.k.Now())
}

// Transfer charges a size-byte message entering path at instant at: it
// draws each pipe's loss, in path order, then runs the message as a
// flow over the path's constrained pipes. done is called exactly once —
// possibly synchronously — with the instant the message exits the last
// pipe (serialization, queueing and per-pipe propagation included) and
// ok=true, or with ok=false when the message is lost. A path with no
// constrained pipe completes synchronously after pure propagation,
// mirroring the pipe model's inline fast path.
//
// The contract vnet's pooled caller relies on: Transfer is called, and
// done is called, with the kernel's execution token held (a simulated
// goroutine or an event callback). path belongs to the caller: it stays
// valid and unmodified until done is called, and the engine does not
// retain it afterwards — the caller reuses the backing array for its
// next message. done may re-enter Transfer (a give-up resets the
// sender's connection, and the application's close handler may send),
// so the engine is consistent before it calls done and touches nothing
// of this transfer after. The engine pools its own per-transfer state
// (xfer, its links, its completion event): every path out of Transfer
// and complete returns the xfer to the pool before calling done, so a
// steady-state transfer allocates nothing.
func (m *Model) Transfer(at sim.Time, size int, path []*netem.Pipe, rng *rand.Rand, done func(sim.Time, bool)) {
	f := m.acquire()
	var prop time.Duration
	for _, p := range path {
		cfg := p.Config()
		if cfg.Loss > 0 && rng.Float64() < cfg.Loss {
			m.lose(f, p, done)
			return
		}
		prop += cfg.Delay
		if cfg.Bandwidth > 0 {
			l := m.linkOf(p)
			if l == nil {
				l = m.newLink(p)
			}
			// A pipe listed twice constrains the flow once.
			if !slices.Contains(f.links, l) {
				f.links = append(f.links, l)
			}
		}
	}
	for _, p := range path {
		p.AccountTransfer(size)
	}
	if len(f.links) == 0 {
		m.release(f)
		done(at.Add(prop), true)
		return
	}
	m.nextFlowID++
	f.id, f.remaining, f.ratedAt, f.prop, f.done = m.nextFlowID, float64(int64(size)*8), at, prop, done
	f.rate, f.newRate, f.bott = -1, -1, nil
	for _, l := range f.links {
		l.flows = append(l.flows, f)
	}
	m.stats.Started++
	m.churn(at, f.links)
}

// lose drops f's message, which pipe p lost: Transfer's cold branch,
// kept out of its frame.
//
//go:noinline
func (m *Model) lose(f *xfer, p *netem.Pipe, done func(sim.Time, bool)) {
	p.AccountLoss()
	m.release(f)
	done(0, false)
}

// acquire takes an xfer off the free list, or builds one and binds its
// completion callback.
func (m *Model) acquire() *xfer {
	if n := len(m.free); n > 0 {
		f := m.free[n-1]
		m.free = m.free[:n-1]
		return f
	}
	f := &xfer{m: m}
	f.completeFn = f.complete
	return f
}

// release returns f, on no link and with no completion pending, to the
// free list. Its stale completion handle needs no reset: the kernel
// checks handles by generation, so Reschedule on it reports false.
func (m *Model) release(f *xfer) {
	f.links, f.done = f.links[:0], nil
	m.free = append(m.free, f)
}

// complete fires when a flow's last byte is carried: detach it,
// re-solve the component it leaves behind (its peers speed up), and
// deliver after the accumulated propagation. In batched mode delivery
// is still exact — only the peers' speed-up waits for the window
// boundary, at their current (conservative) rates. The xfer goes back
// to the pool before done runs, since done may re-enter Transfer.
func (f *xfer) complete() {
	m := f.m
	now := m.k.Now()
	for _, l := range f.links {
		l.remove(f)
	}
	m.stats.Completed++
	if m.tracer != nil {
		m.tracer.FlowDone(now, f.links[0].pipe.Name(), f.id)
	}
	m.churn(now, f.links)
	done, exit := f.done, now.Add(f.prop)
	m.release(f)
	done(exit, true)
}

// markDirty queues l for the next flush, once.
func (m *Model) markDirty(l *link) {
	if !l.dirty {
		l.dirty = true
		m.dirty = append(m.dirty, l)
	}
}

// churn marks the links of an arrival or departure at instant at dirty.
// At window 0 it flushes them at once, at at: a Transfer's at already
// includes its route and firewall cost, so it may lie past the kernel's
// now. Otherwise it arms the batch boundary one window after the
// batch's first event — the event that finds no link dirty, since only
// a flush cleans them; the boundary is a kernel event, so batching is
// as deterministic as any other scheduled work.
func (m *Model) churn(at sim.Time, links []*link) {
	first := len(m.dirty) == 0
	for _, l := range links {
		m.markDirty(l)
	}
	if m.cfg.Window == 0 {
		m.flush(at)
		return
	}
	m.stats.Batched++
	if first {
		m.k.Arm(&m.flushEv, at.Add(m.cfg.Window), m.flushFn)
	}
}

// flush re-levels the dirty links at instant now: incrementally under
// a window (solve), and at window 0 by re-leveling their whole
// components from scratch, as reach finds them. The new allocations
// apply in affected-set order. Every order here is a function of the
// simulation history, so the result is deterministic.
func (m *Model) flush(now sim.Time) {
	if len(m.dirty) == 0 {
		return
	}
	m.epoch++
	m.stats.Solves++
	var region []*link
	var aff []*xfer
	if m.cfg.Window > 0 {
		m.stats.Flushes++
		m.solve()
		region, aff = m.region, m.aff
	} else {
		m.reach()
		region, aff = m.dirty, m.flows
		for _, f := range aff {
			f.inF = true
		}
		m.fill(region, aff)
	}
	m.stats.SolvedFlows += uint64(len(aff))
	m.apply(now, aff)
	for _, f := range aff {
		f.inF = false
	}
	for _, l := range region {
		l.inR = false
	}
	for _, l := range m.dirty {
		l.dirty = false
	}
	m.dirty, m.flows, m.region, m.aff = m.dirty[:0], m.flows[:0], m.region[:0], m.aff[:0]
}

// reach is the flush's BFS over the links↔flows bipartite graph: the
// dirty links first, in dirtying order, then each reached link's
// arrival-ordered flows. It appends every link of the dirty links'
// connected components to dirty (the dirty flag is its visited mark)
// and every flow of them to flows, stamping each with the flush's
// epoch. Nothing changes a link's flows inside a flush, so where in the
// flush it runs does not change what it appends, or in which order.
func (m *Model) reach() {
	ep := m.epoch
	for i := 0; i < len(m.dirty); i++ {
		for _, f := range m.dirty[i].flows {
			if f.mark == ep {
				continue
			}
			f.mark = ep
			m.flows = append(m.flows, f)
			for _, l := range f.links {
				m.markDirty(l)
			}
		}
	}
}

// addLink puts l in the region, once.
func (m *Model) addLink(l *link) {
	if !l.inR {
		l.inR = true
		m.region = append(m.region, l)
	}
}

// addFlow puts f in the affected set, once, and its links in the region.
func (m *Model) addFlow(f *xfer) {
	if !f.inF {
		f.inF = true
		m.aff = append(m.aff, f)
		for _, l := range f.links {
			m.addLink(l)
		}
	}
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
	// back to a from-scratch re-level of the dirty links' components.
	maxIncFills = 3
)

// solve computes the new max-min allocation for the flush's region,
// re-leveling as few flows as the dirty seeds allow. It starts from
// the flows that must move — batched arrivals not yet rated, and flows
// bottlenecked on a dirty link — fills that region with every other
// allocation frozen, then grows the affected set wherever a frozen
// allocation is inconsistent with the recomputed levels: it exceeds
// the new level of a link it crosses (squeezing the flows leveled
// there), its links are oversubscribed, or its own bottleneck now has
// room for it to rise. The affected set grows strictly, so the loop
// terminates; past maxIncFills passes it falls back to a from-scratch
// fill of the dirty links' whole components.
//
// Only that fallback needs the components, so only it runs the BFS.
// A region whose every link's flows are all affected is a union of
// whole components already: there the fallback would append nothing
// and fill the same sets, and the growth scan finds nothing to add, so
// the pass ends the solve with the same fill the fallback makes.
func (m *Model) solve() {
	for _, l := range m.dirty {
		m.addLink(l)
	}
	for _, l := range m.dirty {
		for _, f := range l.flows {
			if f.rate < 0 || f.bott == l {
				m.addFlow(f)
			}
		}
	}
	for pass := 0; ; pass++ {
		if pass == maxIncFills {
			// Incrementality stopped paying: every link and flow of the
			// components joins the incremental sets, appended in BFS
			// order, and the whole region fills from scratch.
			m.reach()
			for _, l := range m.dirty {
				m.addLink(l)
			}
			for _, f := range m.flows {
				m.addFlow(f)
			}
			m.fill(m.region, m.aff)
			return
		}
		m.fill(m.region, m.aff)
		grew := false
		n := len(m.region)
		for i := 0; i < n; i++ {
			l := m.region[i]
			// Oversubscribed: the frozen flows alone exceed the link's
			// capacity (a degrade, or affected flows that rose into
			// them) — all of them must re-level.
			over := false
			if bw := l.pipe.Config().Bandwidth; bw > 0 {
				over = l.residual < -(float64(float64(bw)*rateEps) + absEps)
			}
			for _, g := range l.flows {
				if g.inF {
					continue
				}
				if over || g.rate < 0 || g.rate > l.level*(1+rateEps) {
					m.addFlow(g)
					grew = true
					continue
				}
				if g.bott != l || math.IsInf(g.rate, 1) {
					continue
				}
				if lvl := l.level; math.IsInf(lvl, 1) {
					// g's own bottleneck was not leveled this fill but
					// has slack left over: g can rise.
					if l.residual > float64(g.rate*rateEps)+absEps {
						m.addFlow(g)
						grew = true
					}
				} else if lvl > g.rate*(1+rateEps) {
					m.addFlow(g)
					grew = true
				}
			}
		}
		if !grew {
			return
		}
	}
}

// fill runs progressive filling over the region links R for the
// affected flows F: find the most constrained link (smallest fair
// share among links with unfrozen affected flows), freeze its flows at
// that share, subtract the share from every link they cross, repeat.
// Each iteration saturates at least one link, so the loop runs at most
// len(R) times. The scan reads each link's share from the dense
// m.shares, so it divides nothing; a step re-derives the share of each
// link whose residual or active count it changed, once. The scan picks
// the first link in R order with the least share, as a scan computing
// residual/active in place would.
//
// Flows outside F are frozen: their current rates are subtracted from
// their links' capacity up front and never revisited, which is what
// makes a partial re-level cost only the affected region. With F
// covering the whole region there is nothing to freeze and this is
// the classic from-scratch progressive filling.
//
// Outputs: each affected flow's allocation in newRate and its
// bottleneck in bott; each region link's fair-share level in level
// (+Inf if it never constrained anyone) and leftover capacity in
// residual (negative when frozen flows oversubscribe it).
func (m *Model) fill(R []*link, F []*xfer) {
	if cap(m.shares) < len(R) {
		m.shares = make([]float64, len(R))
	}
	shares := m.shares[:len(R)]
	for i, l := range R {
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
		l.ri = int32(i)
		shares[i] = l.share()
	}
	for _, f := range F {
		f.newRate = -1
	}
	unfrozen := len(F)
	first := 0 // no link before it has an unfrozen flow; active counts only fall
	for unfrozen > 0 {
		for first < len(R) && R[first].active == 0 {
			first++
		}
		if first == len(R) {
			break // unreachable: every affected flow crosses a region link
		}
		// The first active link is the candidate even when its share is
		// NaN, which no later share then beats; an inactive link's +Inf
		// beats nothing.
		bi, share := first, shares[first]
		for i := first + 1; i < len(shares); i++ {
			if s := shares[i]; s < share {
				bi, share = i, s
			}
		}
		bott := R[bi]
		if share < 0 {
			share = 0 // clamp float underflow of a saturated residual
		}
		bott.level = share
		// A step that freezes every remaining flow ends the fill: no scan
		// reads the shares it changes.
		track := int(bott.active) < unfrozen
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
				if track && !l2.stale {
					l2.stale = true
					m.stale = append(m.stale, l2)
				}
			}
		}
		for _, l := range m.stale {
			shares[l.ri] = l.share()
			l.stale = false
		}
		m.stale = m.stale[:0]
	}
}

// apply settles and reschedules every affected flow whose allocation
// changed. A flow whose recomputed rate is bit-identical keeps its
// pending completion event untouched — together with re-leveling
// scoping this is what makes a windowed flush cost the flows it
// re-levels, not their components or the population. (At window 0 a
// flush re-levels the dirty links' whole components.)
func (m *Model) apply(now sim.Time, flows []*xfer) {
	for _, f := range flows {
		if f.newRate == f.rate {
			continue
		}
		if el := now.Sub(f.ratedAt).Seconds(); f.rate > 0 && el > 0 {
			// el > 0 also keeps an infinite rate (a link reconfigured
			// to unlimited) from producing Inf*0 = NaN.
			f.remaining -= float64(f.rate * el)
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		old := f.rate
		f.rate = f.newRate
		f.ratedAt = now
		at := now.Add(durBits(f.remaining, f.rate))
		if !f.ev.Reschedule(at) { // first rating: the handle is unarmed or spent
			m.k.Arm(&f.ev, at, f.completeFn)
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
