package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/bt"
	"repro/internal/chord"
	"repro/internal/churn"
	"repro/internal/gossip"
	"repro/internal/ip"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/vnet"
)

// Options tunes how a scenario is executed without changing what it
// describes. The zero value is the standard run.
type Options struct {
	// Trace, when non-nil, records the full event stream of the run
	// (network sends/deliveries/drops, flow re-rates, scenario timeline
	// events) — the basis of the golden-trace regression tests.
	Trace *trace.Log
	// Seed overrides the spec's seed when non-zero (the sweep engine's
	// seed axis).
	Seed int64
	// Obs is the run's deterministic metric registry: the kernel, the
	// network, the protocol layers and the workload register their
	// instruments on it, and Result.Snapshot is projected from its
	// final state. Nil leaves the network its private registry
	// (vnet.Config.Obs); a caller passes one in to keep reading it
	// after the run. A registry serves one run. It never changes the
	// run itself — the golden-trace corpus is byte-identical with or
	// without a sampler (TestObsTraceNeutral).
	Obs *obs.Registry
	// SampleInterval, with OnSample set, snapshots the registry every
	// interval of *virtual* time (obs.StartSampler) and hands the
	// snapshot to OnSample in kernel context. Zero disables sampling;
	// the final snapshot is Result.Obs either way.
	SampleInterval time.Duration
	// OnSample receives each periodic snapshot. It runs in kernel
	// context and must not block; the serve layer uses it to publish
	// live metric frames to HTTP subscribers.
	OnSample func(at sim.Time, snap *obs.Snapshot)
}

// Result is a completed scenario run.
type Result struct {
	Spec    *Spec
	Model   netem.ModelKind
	EndedAt sim.Time
	Kernel  sim.Stats
	Net     vnet.NetworkStats
	// Obs is the registry's snapshot at the end of the run.
	Obs *obs.Snapshot
	// Snapshot is Obs projected onto its columns (obs.Snapshot.Project),
	// keyed like the sweep engine's cell results and labelled with
	// scenario/workload/model/seed, plus classifier under a firewall.
	Snapshot *metrics.Snapshot

	// Swarm family.
	Completions []sim.Time // per client, zero = unfinished
	Done, Total int        // clients completed / total clients
	// Progress holds each client's piece-completion trajectory, in
	// Completions order — the curves of Figs 8 and 10. The slices are
	// the clients' own records, not copies.
	Progress [][]bt.Progress

	// Copies of the arrivals, departures, avg-hops and coverage
	// columns, read back from Snapshot and kept only because bench
	// reads them.
	Arrivals, Departures int
	AvgHops, Coverage    float64
}

// runner is the per-run state the timeline events act on.
type runner struct {
	*Assembly
	spec    *Spec
	topo    *topo.Topology
	tracer  *trace.Log
	class   map[string]topo.LinkClass // group name -> current class
	parts   map[string]int            // active partition signature -> id
	lossGen map[string]uint64         // group -> loss-burst generation
	linkGen map[string]uint64         // group -> link up/down generation
	rules   *netem.RuleSet            // firewall table; nil unless enabled
	reg     *obs.Registry             // the run's registry; Result.Snapshot is its projection
	finish  func(*Result)             // registers the workload's values
}

// Resolve returns the spec a run executes: sp defaulted
// (WithDefaults), its seed replaced by seed when that is non-zero,
// and validated. The caller's value is not mutated.
func Resolve(sp *Spec, seed int64) (*Spec, error) {
	sp = sp.WithDefaults()
	if seed != 0 {
		sp.Seed = seed
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

// Run executes a scenario to completion (or its horizon) on a fresh
// kernel and returns the measured result. The spec is resolved first
// (Resolve); the caller's value is not mutated.
func Run(sp *Spec, opt Options) (*Result, error) {
	sp, err := Resolve(sp, opt.Seed)
	if err != nil {
		return nil, err
	}
	t, ncfg, err := sp.compile()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sp.Name, err)
	}
	ncfg.Obs = opt.Obs
	a, err := Assemble(sp.Seed, t, ncfg, sp.Folding)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sp.Name, err)
	}
	reg := a.Net.Obs()
	if opt.Trace != nil {
		a.Net.SetTrace(opt.Trace)
	}
	r := &runner{
		Assembly: a,
		spec:     sp,
		topo:     t,
		tracer:   opt.Trace,
		class:    make(map[string]topo.LinkClass, len(sp.Groups)),
		parts:    make(map[string]int),
		lossGen:  make(map[string]uint64),
		linkGen:  make(map[string]uint64),
		rules:    ncfg.Rules,
		reg:      reg,
	}
	for _, g := range t.Groups() {
		r.class[g.Name] = g.Class
	}
	// Kernel instruments: pull-style, evaluated only at snapshot time,
	// which is always between kernel callbacks.
	k := a.Kernel
	reg.CounterFunc("p2plab_sim_events_total", "kernel-events", "Kernel callbacks dispatched.", func() uint64 { return k.Snapshot().Events })
	reg.CounterFunc("p2plab_sim_switches_total", "kernel-switches", "Simulated-task activations.", func() uint64 { return k.Snapshot().Switches })
	reg.CounterFunc("p2plab_sim_spawns_total", "kernel-spawns", "Simulated tasks created.", func() uint64 { return k.Snapshot().Spawns })
	reg.CounterFunc("p2plab_sim_parks_total", "", "Simulated-task activations paid with a coroutine switch.", func() uint64 { return k.Parks() })
	reg.GaugeFunc("p2plab_sim_queue_depth", "", "Pending kernel events, i.e. live timers.", func() float64 { return float64(k.QueueLen()) })
	reg.GaugeFunc("p2plab_sim_virtual_seconds", "ended-s", "Current virtual time of the run.", func() float64 { return k.Now().Seconds() })

	res := &Result{Spec: sp, Model: ncfg.Model, Snapshot: metrics.NewSnapshot()}
	res.Snapshot.Label("scenario", sp.Name)
	res.Snapshot.Label("workload", sp.Workload.Kind)
	res.Snapshot.Label("model", ncfg.Model.String())
	res.Snapshot.Label("seed", fmt.Sprintf("%d", sp.Seed))

	if err := kindOf(sp.Workload.Kind).start(r); err != nil {
		return nil, err
	}
	for _, ev := range sp.Timeline {
		r.schedule(ev)
	}
	// The sampler is a repeating kernel event; it is safe here because
	// every workload ends the run via k.Stop() (never by queue
	// exhaustion), which leaves the pending sample event for the
	// deferred sampler.Stop to cancel.
	sampler := obs.StartSampler(r.Kernel, reg, opt.SampleInterval, opt.OnSample)
	defer sampler.Stop()
	if err := r.Kernel.Run(); err != nil {
		return nil, fmt.Errorf("scenario %s: kernel: %w", sp.Name, err)
	}
	r.finish(res)
	res.EndedAt = r.Kernel.Now()
	res.Kernel = r.Kernel.Snapshot()
	res.Net = r.Net.Stats()
	res.Obs = reg.Snapshot()
	res.Obs.Project(res.Snapshot)
	res.Arrivals, res.Departures = int(res.Snapshot.Counters["arrivals"]), int(res.Snapshot.Counters["departures"])
	res.AvgHops, res.Coverage = res.Snapshot.Values["avg-hops"], res.Snapshot.Values["coverage"]
	if r.rules != nil {
		res.Snapshot.Label("classifier", r.rules.Classifier().String())
	}
	return res, nil
}

// event records a timeline action on the trace so golden traces cover
// the scenario layer itself, not just its network effects.
func (r *runner) event(format string, args ...any) {
	if r.tracer != nil {
		r.tracer.Add(r.Kernel.Now(), "scenario.event", r.spec.Name, format, args...)
	}
}

// schedule installs one timeline event on the kernel. Auto-reverts
// (For > 0) are armed by apply itself, only when the event actually
// took effect, and guard against later events on the same targets —
// a revert never undoes a newer partition, burst or flap.
func (r *runner) schedule(ev EventSpec) {
	r.Kernel.At(sim.Time(0).Add(ev.At.D()), func() { r.apply(ev) })
}

// groupHosts returns the member hosts of the named groups, in group
// then creation order.
func (r *runner) groupHosts(names []string) []*vnet.Host {
	var out []*vnet.Host
	for _, g := range names {
		out = append(out, r.Groups[g]...)
	}
	return out
}

func (r *runner) groupAddrs(names []string) []ip.Addr {
	hosts := r.groupHosts(names)
	out := make([]ip.Addr, len(hosts))
	for i, h := range hosts {
		out[i] = h.Addr()
	}
	return out
}

// partKey canonicalizes a partition's two sides so a heal (or
// auto-heal) finds the partition regardless of declaration order.
func partKey(a, b []string) string {
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	ka, kb := strings.Join(as, ","), strings.Join(bs, ",")
	if ka > kb {
		ka, kb = kb, ka
	}
	return ka + "|" + kb
}

func (r *runner) apply(ev EventSpec) {
	switch ev.Action {
	case ActionPartition:
		key := partKey(ev.A, ev.B)
		if _, active := r.parts[key]; active {
			return // already split; the earlier partition keeps its schedule
		}
		r.event("partition %s | %s", strings.Join(ev.A, ","), strings.Join(ev.B, ","))
		id := r.Net.Partition(r.groupAddrs(ev.A), r.groupAddrs(ev.B))
		r.parts[key] = id
		if ev.For > 0 {
			// The revert is pinned to this partition instance: an
			// explicit heal + re-partition in between leaves the newer
			// partition alone.
			r.Kernel.After(ev.For.D(), func() {
				if r.parts[key] == id {
					r.heal(ev.A, ev.B)
				}
			})
		}
	case ActionHeal:
		r.heal(ev.A, ev.B)
	case ActionSetClass:
		class, _ := topo.ClassByName(ev.Class)
		r.event("set-class %s -> %s", strings.Join(ev.Groups, ","), class.Name)
		for _, g := range ev.Groups {
			r.class[g] = class
			for _, h := range r.Groups[g] {
				r.Net.SetLinkClass(h, class)
			}
		}
	case ActionLoss:
		r.event("loss burst %g on %s for %v", ev.Loss, strings.Join(ev.Groups, ","), ev.For)
		gens := make(map[string]uint64, len(ev.Groups))
		for _, g := range ev.Groups {
			r.lossGen[g]++
			gens[g] = r.lossGen[g]
			for _, h := range r.Groups[g] {
				r.Net.SetLinkLoss(h, ev.Loss)
			}
		}
		r.Kernel.After(ev.For.D(), func() {
			// Restore only the groups this burst still owns: an
			// overlapping later burst keeps its own loss rate and its
			// own expiry.
			for _, g := range ev.Groups {
				if r.lossGen[g] != gens[g] {
					continue
				}
				r.event("loss burst over on %s", g)
				for _, h := range r.Groups[g] {
					r.Net.SetLinkLoss(h, r.class[g].Loss)
				}
			}
		})
	case ActionLinkDown:
		r.event("link-down %s", strings.Join(ev.Groups, ","))
		gens := make(map[string]uint64, len(ev.Groups))
		for _, g := range ev.Groups {
			r.linkGen[g]++
			gens[g] = r.linkGen[g]
			for _, h := range r.Groups[g] {
				r.Net.SetLinkUp(h, false)
			}
		}
		if ev.For > 0 {
			r.Kernel.After(ev.For.D(), func() {
				for _, g := range ev.Groups {
					if r.linkGen[g] != gens[g] {
						continue // a newer flap owns the interfaces
					}
					r.event("link-up %s", g)
					for _, h := range r.Groups[g] {
						r.Net.SetLinkUp(h, true)
					}
				}
			})
		}
	case ActionLinkUp:
		r.event("link-up %s", strings.Join(ev.Groups, ","))
		for _, g := range ev.Groups {
			r.linkGen[g]++ // an explicit up cancels pending auto-restores
			for _, h := range r.Groups[g] {
				r.Net.SetLinkUp(h, true)
			}
		}
	case ActionAddRule:
		src, dst := r.rulePrefix(ev.Src), r.rulePrefix(ev.Dst)
		action := netem.ActionCount
		switch ev.Rule {
		case "deny":
			action = netem.ActionDeny
		case "allow":
			action = netem.ActionAccept
		}
		copies := ev.Copies
		if copies == 0 {
			copies = 1
		}
		// Every copy of the batch shares one rule number (duplicates
		// are legal, evaluated in insertion order), so one del-rule
		// with that id retires the whole batch.
		id := ev.ID
		if id == 0 {
			id = r.rules.NextID()
		}
		r.rules.AddCopies(netem.Rule{ID: id, Src: src, Dst: dst, Action: action}, copies)
		r.event("add-rule %s %d× id %d from %v to %v (table %d, %s)",
			ev.Rule, copies, id, src, dst, r.rules.Len(), r.rules.Classifier())
	case ActionDelRule:
		n := r.rules.Remove(ev.ID)
		r.event("del-rule id %d removed %d (table %d)", ev.ID, n, r.rules.Len())
	case ActionDenyPfx:
		r.event("deny-prefix %s", strings.Join(ev.Groups, ","))
		var handles []netem.RuleHandle
		for _, g := range ev.Groups {
			pfx := r.topo.Group(g).Prefix
			// Firewall the group's uplink, with partition semantics:
			// members still reach each other (the leading intra-group
			// accept terminates evaluation, the ipfw idiom), while
			// traffic crossing the group boundary is denied in both
			// directions. A pinned ID shares one rule number across the
			// event so a later del-rule can lift it; otherwise the
			// rules get auto-assigned numbers.
			id := ev.ID
			if id == 0 {
				id = r.rules.NextID()
			}
			handles = append(handles,
				r.rules.AddHandle(netem.Rule{ID: id, Src: pfx, Dst: pfx, Action: netem.ActionAccept}),
				r.rules.AddHandle(netem.Rule{ID: id, Src: pfx, Action: netem.ActionDeny}),
				r.rules.AddHandle(netem.Rule{ID: id, Dst: pfx, Action: netem.ActionDeny}))
		}
		if ev.For > 0 {
			// The revert removes exactly the rule instances this event
			// added — handles pin (ID, insertion), so an explicit
			// del-rule in between makes the removal a no-op, and an
			// overlapping event sharing the pinned ID keeps its own
			// rules until its own revert.
			r.Kernel.After(ev.For.D(), func() {
				for _, h := range handles {
					r.rules.RemoveHandle(h)
				}
				r.event("deny-prefix lifted on %s", strings.Join(ev.Groups, ","))
			})
		}
	}
}

// rulePrefix resolves an add-rule match side: empty matches everything,
// a group name resolves to the group's address block, anything else is
// a CIDR prefix (validated by Spec.Validate).
func (r *runner) rulePrefix(s string) ip.Prefix {
	if s == "" {
		return ip.Prefix{}
	}
	if g := r.topo.Group(s); g != nil {
		return g.Prefix
	}
	pfx, _ := ip.ParsePrefix(s)
	return pfx
}

func (r *runner) heal(a, b []string) {
	key := partKey(a, b)
	id, active := r.parts[key]
	if !active {
		return
	}
	r.event("heal %s | %s", strings.Join(a, ","), strings.Join(b, ","))
	delete(r.parts, key)
	r.Net.Heal(id)
}

// The ping workload's series, fixed: Fig 6's measurement.
const (
	pingCount    = 10
	pingInterval = 50 * time.Millisecond
	pingTimeout  = 5 * time.Second
)

// startPing has the first host ping the second: the round trip pays
// both access links and, under a firewall, two table scans — Fig 6's
// quantity.
func (r *runner) startPing() error {
	var st vnet.PingStats
	r.Kernel.Go("pinger", func(p *sim.Proc) {
		st = r.Hosts[0].PingSeries(p, r.Hosts[1].Addr(), vnet.DefaultPingSize, pingCount, pingInterval, pingTimeout)
		r.Kernel.Stop()
	})
	r.finish = func(res *Result) {
		res.Done, res.Total = st.Received, st.Sent
		r.reg.Gauge("p2plab_ping_rtt_avg_milliseconds", "rtt-avg-ms", "Mean round trip of the ping series.").Set(st.Avg.Seconds() * 1000)
		r.reg.Gauge("p2plab_ping_rtt_min_milliseconds", "rtt-min-ms", "Fastest round trip of the ping series.").Set(st.Min.Seconds() * 1000)
		r.reg.Gauge("p2plab_ping_rtt_max_milliseconds", "rtt-max-ms", "Slowest round trip of the ping series.").Set(st.Max.Seconds() * 1000)
	}
	return nil
}

// trackerAddr is a swarm-kind run's tracker address, in admin space
// outside the 10/8 group prefixes; web seed i follows at trackerAddr+1+i.
var trackerAddr = ip.MustParseAddr("192.168.0.1")

// adminAddrs returns the addresses a swarm-kind run adds beside its
// groups: the tracker's, then one per web seed. Validate refuses a
// group prefix that holds any of them.
func (w *WorkloadSpec) adminAddrs() []ip.Addr {
	addrs := make([]ip.Addr, 1+w.WebSeeds)
	for i := range addrs {
		addrs[i] = trackerAddr.Add(uint32(i))
	}
	return addrs
}

// addAdminHosts registers the tracker and web-seed hosts at w's admin
// addresses, tracker first, each on an unconstrained link.
func addAdminHosts(n *vnet.Network, w *WorkloadSpec) (tracker *vnet.Host, webSeeds []*vnet.Host, err error) {
	addrs := w.adminAddrs()
	if tracker, err = n.AddHostClass(addrs[0], topo.LAN); err != nil {
		return nil, nil, fmt.Errorf("tracker: %w", err)
	}
	for _, a := range addrs[1:] {
		h, err := n.AddHostClass(a, topo.LAN)
		if err != nil {
			return nil, nil, fmt.Errorf("web seed: %w", err)
		}
		webSeeds = append(webSeeds, h)
	}
	return tracker, webSeeds, nil
}

// startSwarm launches the swarm, churn-swarm and snapshot workloads.
// What differs by kind hangs off spec fields that are zero for the
// other kinds: only a churn-swarm has a churn fraction, only a snapshot
// web seeds, a restarting seeder, rate caps and its own piece length
// (zero: the default piece length, no token bucket). A snapshot is a
// few clients pulling one large file in big pieces over few
// connections; its web seeds are CDN hosts on LAN links in admin space
// (192.168.0.2+), so the clients' access links and caps stay the
// bottleneck.
//
// Creation order is trace-visible: tracker host, then web-seed hosts;
// BuildSwarm, then the web-seed tasks, then the churner clients; Start,
// then the restart task, then the churn driver, then the waiter.
func (r *runner) startSwarm() error {
	w := r.spec.Workload
	horizon := r.spec.Horizon.D()
	tracker, wsHosts, err := addAdminHosts(r.Net, &w)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", r.spec.Name, err)
	}
	var wsEndpoints []ip.Endpoint
	for _, h := range wsHosts {
		wsEndpoints = append(wsEndpoints, ip.Endpoint{Addr: h.Addr(), Port: bt.WebSeedPort})
	}

	seedHosts := r.Groups[w.SeederGroup][:w.Seeders]
	isSeed := make(map[*vnet.Host]bool, len(seedHosts))
	for _, h := range seedHosts {
		isSeed[h] = true
	}
	var clients []*vnet.Host
	for _, h := range r.Hosts {
		h.SetBindEnv(h.Addr()) // P2PLab's BINDIP interception is active
		if !isSeed[h] {
			clients = append(clients, h)
		}
	}
	nChurn := int(float64(len(clients)) * w.ChurnFraction)
	stable, churning := clients[:len(clients)-nChurn], clients[len(clients)-nChurn:]

	bspec := bt.DefaultSwarmSpec()
	bspec.FileSize = w.FileSize
	bspec.PieceLength = w.PieceLength
	bspec.Client.UploadRate = w.UpRate
	bspec.Client.DownloadRate = w.DownRate
	bspec.Client.WebSeeds = wsEndpoints
	if w.Kind == WorkloadSnapshot {
		bspec.Client.MaxPeers = w.ConnCap
		bspec.Client.MaxInitiate = w.ConnCap
		bspec.Client.MinPeers = w.ConnCap
		bspec.Client.PipelineDepth = 0 // auto-scale to blocks-per-piece
	}

	// A restart scenario peels the first seeder off the swarm's static
	// seeder set and runs it through the resuming-client lifecycle
	// instead: offline at seed_restart_at, back (same pieces) after
	// seed_restart_down.
	buildSeeds := seedHosts
	if w.SeedRestartAt > 0 {
		buildSeeds = seedHosts[1:]
	}
	swarm, err := bt.BuildSwarm(bspec, tracker, buildSeeds, stable)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", r.spec.Name, err)
	}
	if w.Kind == WorkloadSnapshot {
		bt.WebSeedBytes(r.reg) // a snapshot run reports the column even with no web seed
	}
	for _, h := range wsHosts {
		bt.NewWebSeed(h, swarm.Meta)
	}
	trackerEP := ip.Endpoint{Addr: tracker.Addr(), Port: bt.TrackerPort}
	churners := make([]*bt.ResumingClient, len(churning))
	peers := make([]churn.Peer, len(churning))
	for i, h := range churning {
		churners[i] = bt.NewResumingClient(h, swarm.Meta, bt.NewBitfield(swarm.Meta.NumPieces()), trackerEP, bspec.Client)
		peers[i] = churners[i]
	}

	swarm.Start(w.StartInterval.D())
	if w.SeedRestartAt > 0 {
		rc := bt.NewResumingClient(seedHosts[0], swarm.Meta,
			bt.Full(swarm.Meta.NumPieces()), trackerEP, bspec.Client)
		r.Kernel.Go("snapshot-restart-seed", func(p *sim.Proc) {
			rc.Online(p)
			p.Sleep(w.SeedRestartAt.D())
			r.event("seed offline (restart)")
			rc.Offline(p)
			p.Sleep(w.SeedRestartDown.D())
			r.event("seed back online")
			rc.Online(p)
		})
	}
	if len(churners) > 0 {
		driver := churn.NewDriver(r.Kernel, r.reg, churn.Config{
			Session:      churn.Pareto{Scale: w.Session.D(), Alpha: 1.8},
			Downtime:     churn.Exponential{MeanDuration: w.Downtime.D()},
			InitialDelay: time.Duration(len(churning)) * w.StartInterval.D(),
			Horizon:      horizon,
		})
		driver.Drive(peers)
	}

	r.Kernel.Go("scenario-waiter", func(p *sim.Proc) {
		if len(churners) == 0 {
			swarm.WaitAll(p, horizon)
			r.Kernel.Stop()
			return
		}
		// Stable clients get the first half of the horizon, churners
		// the rest — the E3 driver's schedule.
		swarm.WaitAll(p, horizon/2)
		deadline := p.Now().Add(horizon / 2)
		for p.Now() < deadline {
			all := true
			for _, cc := range churners {
				if !cc.Done() {
					all = false
					break
				}
			}
			if all {
				break
			}
			p.Sleep(30 * time.Second)
		}
		r.Kernel.Stop()
	})

	r.finish = func(res *Result) {
		res.Total = len(clients)
		r.completions(res, swarm, w.FileSize)
		if w.ChurnFraction > 0 {
			r.reg.Gauge("p2plab_swarm_stable_done", "stable-done", "Stable clients that completed the download.").Set(float64(res.Done))
			churnDone := 0
			for _, cc := range churners {
				if cc.Done() {
					churnDone++
				}
			}
			res.Done += churnDone
			r.reg.Gauge("p2plab_swarm_churn_done", "churn-done", "Churning clients that completed the download.").Set(float64(churnDone))
		}
		r.clientsDone(res)
	}
	return nil
}

// completions records the swarm's per-client completion times and
// trajectories and the figures derived from them: how many finished,
// when the last and the average one did, and the per-client goodput
// over the slowest completion — what a piece-size × conn-cap × rate
// grid is swept for.
func (r *runner) completions(res *Result, swarm *bt.Swarm, fileSize int64) {
	res.Completions = swarm.CompletionTimes()
	res.Progress = make([][]bt.Progress, len(swarm.Clients))
	for i, c := range swarm.Clients {
		res.Progress[i] = c.Progress()
	}
	var last, sum float64
	for _, t := range res.Completions {
		if t > 0 {
			res.Done++
			sum += t.Seconds()
			if t.Seconds() > last {
				last = t.Seconds()
			}
		}
	}
	r.reg.Gauge("p2plab_swarm_last_completion_seconds", "last-completion-s", "Virtual time the last client completed.").Set(last)
	if res.Done > 0 {
		r.reg.Gauge("p2plab_swarm_mean_completion_seconds", "mean-completion-s", "Mean completion time over the clients that completed.").Set(sum / float64(res.Done))
		r.reg.Gauge("p2plab_swarm_goodput_megabits_per_second", "goodput-mbps", "Per-client goodput: the file over the last completion.").Set(float64(fileSize) * 8 / (last * 1e6))
	}
}

// clientsDone reports how many of a swarm workload's clients
// completed, and which fraction of the total that is.
func (r *runner) clientsDone(res *Result) {
	r.reg.Gauge("p2plab_swarm_clients_done", "clients-done", "Clients that completed the download.").Set(float64(res.Done))
	r.reg.Gauge("p2plab_swarm_done_fraction", "done-fraction", "Fraction of the clients that completed the download.").Set(float64(res.Done) / float64(res.Total))
}

func (r *runner) startDHT() error {
	w := r.spec.Workload
	nodes := make([]*chord.Node, len(r.Hosts))
	for i, h := range r.Hosts {
		nodes[i] = chord.NewNode(h)
	}
	nodes[0].Create()
	for i := 1; i < len(nodes); i++ {
		i := i
		r.Kernel.After(time.Duration(i)*500*time.Millisecond, func() { nodes[i].Join(nodes[0].Ref().Addr) })
	}
	warm := time.Duration(len(nodes))*500*time.Millisecond + 60*time.Second

	var avgHops float64
	var avgLat time.Duration
	var latencies []float64 // per successful lookup, ms
	var done int
	r.Kernel.Go("scenario-measure", func(p *sim.Proc) {
		p.Sleep(warm)
		totalHops := 0
		var totalLat time.Duration
		for i := 0; i < w.Lookups; i++ {
			res, err := nodes[i%len(nodes)].Lookup(p, fmt.Sprintf("key-%d", i))
			if err != nil {
				continue
			}
			done++
			totalHops += res.Hops
			totalLat += res.Latency
			latencies = append(latencies, res.Latency.Seconds()*1000)
		}
		if done > 0 {
			avgHops = float64(totalHops) / float64(done)
			avgLat = totalLat / time.Duration(done)
		}
		r.Kernel.Stop()
	})

	r.finish = func(res *Result) {
		var p90 time.Duration
		if done > 0 {
			p90 = time.Duration(metrics.Summarize(latencies).P90 * float64(time.Millisecond))
		}
		res.Done, res.Total = done, w.Lookups
		r.reg.Gauge("p2plab_dht_avg_hops", "avg-hops", "Mean overlay hops of a successful lookup.").Set(avgHops)
		r.reg.Gauge("p2plab_dht_avg_latency_milliseconds", "avg-latency-ms", "Mean latency of a successful lookup.").Set(avgLat.Seconds() * 1000)
		r.reg.Gauge("p2plab_dht_p90_latency_milliseconds", "p90-latency-ms", "90th-percentile latency of a successful lookup.").Set(p90.Seconds() * 1000)
		r.reg.Gauge("p2plab_dht_lookups_done", "lookups-done", "Lookups that succeeded.").Set(float64(done))
	}
	return nil
}

func (r *runner) startGossip() error {
	w := r.spec.Workload
	nodes := make([]*gossip.Node, len(r.Hosts))
	eps := make([]ip.Endpoint, len(r.Hosts))
	for i, h := range r.Hosts {
		nodes[i] = gossip.NewNode(h, w.Fanout)
		eps[i] = ip.Endpoint{Addr: h.Addr(), Port: gossip.Port}
	}
	for _, nd := range nodes {
		nd.SetPeers(eps)
		nd.Start()
	}

	var coveredFinal int
	var coverage float64
	var t50, t100 time.Duration
	var pushes uint64
	r.Kernel.Go("scenario-driver", func(p *sim.Proc) {
		p.Sleep(time.Second)
		start := p.Now()
		const updateID = 1
		nodes[0].Publish(gossip.Update{ID: updateID})
		window := 5 * time.Minute
		if h := r.spec.Horizon.D(); h < window {
			window = h
		}
		deadline := start.Add(window)
		n := len(nodes)
		for p.Now() < deadline {
			p.Sleep(250 * time.Millisecond)
			covered := 0
			for _, nd := range nodes {
				if nd.Knows(updateID) {
					covered++
				}
			}
			if t50 == 0 && covered*2 >= n {
				t50 = p.Now().Sub(start)
			}
			if covered == n {
				t100 = p.Now().Sub(start)
				break
			}
		}
		covered := 0
		for _, nd := range nodes {
			if nd.Knows(updateID) {
				covered++
			}
			pushes += nd.Stats.Pushes
		}
		coveredFinal = covered
		coverage = float64(covered) / float64(n)
		r.Kernel.Stop()
	})

	r.finish = func(res *Result) {
		res.Done = coveredFinal
		res.Total = len(nodes)
		r.reg.Gauge("p2plab_gossip_coverage", "coverage", "Fraction of the nodes the update reached.").Set(coverage)
		r.reg.Gauge("p2plab_gossip_t50_seconds", "t50-s", "Time from publish to half coverage.").Set(t50.Seconds())
		r.reg.Gauge("p2plab_gossip_t100_seconds", "t100-s", "Time from publish to full coverage.").Set(t100.Seconds())
		r.reg.Counter("p2plab_gossip_pushes_total", "pushes", "Gossip pushes sent.").Add(pushes)
	}
	return nil
}
