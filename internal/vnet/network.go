// Package vnet provides virtual sockets over the emulated network: hosts
// with their own IP addresses (P2PLab's interface aliases), TCP-like
// connections, datagrams and ping, all scheduled on the virtual-time
// kernel and shaped by netem pipes.
//
// The layering mirrors P2PLab: a Host is a virtual node whose network
// identity is one alias address; its access link is a pair of pipes
// (up/down); a pluggable Fabric (the physical cluster model in
// internal/virt) inserts extra pipes, latency and firewall-rule cost on
// each path.
package vnet

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/flow"
	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Errors returned by socket operations.
var (
	ErrAddrInUse         = errors.New("vnet: address already in use")
	ErrConnRefused       = errors.New("vnet: connection refused")
	ErrTimeout           = errors.New("vnet: operation timed out")
	ErrClosed            = errors.New("vnet: connection closed")
	ErrNetUnreachable    = errors.New("vnet: network unreachable")
	ErrHostExists        = errors.New("vnet: host address already registered")
	ErrAdminDenied       = errors.New("vnet: administratively denied")
	ErrListenerBacklog   = errors.New("vnet: listener backlog full")
	ErrMessageTooLarge   = errors.New("vnet: message exceeds maximum size")
	ErrBindInterception  = errors.New("vnet: bind overridden by BINDIP interception")
	ErrPortAlreadyBound  = errors.New("vnet: port already bound")
	ErrUnknownListener   = errors.New("vnet: no listener on destination")
	ErrDialSelfUnhosted  = errors.New("vnet: destination host not registered")
	ErrTooManyRetransmit = errors.New("vnet: too many retransmissions")
)

// Route describes what a message traverses between the source host's
// up-pipe and the destination host's down-pipe.
type Route struct {
	// Pipes are traversed in order (physical NIC pipes, extra shaping).
	Pipes []*netem.Pipe
	// Latency is fixed additional one-way latency (inter-group latency).
	Latency time.Duration
	// Cost is CPU time charged to the sender before transmission
	// (firewall rule evaluation).
	Cost time.Duration
	// Drop administratively denies the path (firewall deny rule).
	Drop bool
}

// Fabric computes the route between two virtual node addresses. The
// zero fabric (nil) yields empty routes: only access links apply.
type Fabric interface {
	Route(src, dst ip.Addr, size int) Route
}

// TopoFabric is the simplest fabric: inter-group latency from a
// topology, no extra pipes. It models the paper's emulation model
// without the physical-cluster folding layer.
type TopoFabric struct {
	Topo *topo.Topology
}

// Route implements Fabric.
func (f *TopoFabric) Route(src, dst ip.Addr, _ int) Route {
	return Route{Latency: f.Topo.GroupLatency(src, dst)}
}

// Config tunes network-wide constants.
type Config struct {
	// SyscallCosts is the per-call virtual CPU cost table.
	SyscallCosts SyscallCosts
	// HandshakeTimeout bounds Dial.
	HandshakeTimeout time.Duration
	// RTO is the retransmission timeout for reliable (conn) messages
	// dropped by lossy pipes.
	RTO time.Duration
	// MaxRetransmits bounds retransmission attempts per message.
	MaxRetransmits int
	// HeaderBytes is the per-message wire overhead added to payload
	// sizes (TCP/IP header equivalent).
	HeaderBytes int
	// Model selects the link-emulation model for every message path:
	// netem.ModelPipe (the zero value, Dummynet-style per-pipe
	// charging) or netem.ModelFlow (max-min fair bandwidth sharing
	// across concurrent transfers; see repro/internal/flow). One
	// option flips a whole experiment between the two.
	Model netem.ModelKind
	// FlowWindow, under the flow model, batches the solver's re-rates:
	// churn events within one window of virtual time coalesce into a
	// single solve per affected component at the window boundary
	// (flow.Config.Window). 0 re-solves at every event. Ignored under
	// the pipe model.
	FlowWindow time.Duration
	// Rules, when non-nil, is the network-wide IPFW-style firewall:
	// every transmission attempt is classified src→dst through the
	// table, matched ActionPipe pipes stack onto the path (Dummynet
	// one-pass mode), an ActionDeny drops the attempt before any pipe
	// is charged (reliable traffic then behaves exactly as under a
	// partition: retransmit with backoff, reset on exhaustion, heal
	// transparently if the rule is removed in time), and the
	// evaluation cost — Visited × PerRuleCost, the paper's Fig 6
	// artifact — is charged to virtual time ahead of serialization.
	// nil (the default) skips classification entirely: traces are
	// byte-identical to a network without this field.
	Rules *netem.RuleSet
	// Obs, when non-nil, attaches the deterministic metric registry:
	// pull-style collectors expose NetworkStats and connection, pipe
	// and flow-solver state at snapshot time. nil (the default) skips
	// instrumentation; either way traces are byte-identical (obs never
	// touches the RNG, the trace or the event queue).
	Obs *obs.Registry
}

// DefaultConfig returns the standard configuration.
func DefaultConfig() Config {
	return Config{
		SyscallCosts:     DefaultSyscallCosts(),
		HandshakeTimeout: 30 * time.Second,
		RTO:              200 * time.Millisecond,
		MaxRetransmits:   8,
		HeaderBytes:      40,
	}
}

// Network is the virtual internet: a registry of hosts plus the fabric
// connecting them.
type Network struct {
	k      *sim.Kernel
	fabric Fabric
	cfg    Config
	model  netem.LinkModel
	hosts  map[ip.Addr]*Host
	order  []*Host // deterministic iteration
	nextID uint64  // connection ids

	parts      []*partition // active partitions, creation order
	nextPartID int

	stats  NetworkStats
	tracer *trace.Log

	// pipeWalk is set when model is the store-and-forward pipe model:
	// xfer.attempt then walks the hops inline (xfer.step) instead of
	// calling model.Transfer.
	pipeWalk bool
	freeXfer *xfer
}

// partition is one active administrative split: traffic between the a
// and b sides is dropped in both directions until healed.
type partition struct {
	id   int
	a, b map[ip.Addr]bool
}

// Partition splits the network between the two address sets: every
// transmission attempt with one endpoint in a and the other in b is
// dropped (not queued — see DESIGN.md decision 6) until Heal is called
// with the returned id. Reliable messages keep retrying with their
// usual backoff, so a short partition heals transparently while a long
// one exhausts retransmissions and surfaces as connection failures.
// Partitions may overlap; a path is blocked while any partition covers
// it. Addresses inside one side still reach each other.
func (n *Network) Partition(a, b []ip.Addr) int {
	p := &partition{id: n.nextPartID, a: make(map[ip.Addr]bool, len(a)), b: make(map[ip.Addr]bool, len(b))}
	n.nextPartID++
	for _, x := range a {
		p.a[x] = true
	}
	for _, x := range b {
		p.b[x] = true
	}
	n.parts = append(n.parts, p)
	if n.tracer != nil {
		n.tracer.Add(n.k.Now(), "net.partition", "", "partition %d: %d|%d host(s)", p.id, len(p.a), len(p.b))
	}
	return p.id
}

// Heal removes the partition with the given id; unknown ids are
// ignored (healing twice is harmless).
func (n *Network) Heal(id int) {
	for i, p := range n.parts {
		if p.id == id {
			n.parts = append(n.parts[:i], n.parts[i+1:]...)
			if n.tracer != nil {
				n.tracer.Add(n.k.Now(), "net.partition", "", "heal %d", id)
			}
			return
		}
	}
}

// Partitioned reports whether traffic between src and dst is currently
// blocked by an active partition.
func (n *Network) Partitioned(src, dst ip.Addr) bool {
	for _, p := range n.parts {
		if (p.a[src] && p.b[dst]) || (p.b[src] && p.a[dst]) {
			return true
		}
	}
	return false
}

// pathBlocked reports whether a transmission attempt between the two
// hosts is administratively impossible right now (a downed interface on
// either end, or an active partition between them).
func (n *Network) pathBlocked(src, dst *Host) bool {
	if src.linkDown || dst.linkDown {
		return true
	}
	return n.Partitioned(src.addr, dst.addr)
}

// resetConn tears down the sender side of an established connection
// whose reliable message exhausted retransmission — TCP's give-up
// reset. Without it a connection that straddles a long partition stays
// silently half-open forever and the application never redials; with
// it the local reader observes the close, drops the peer, and
// recovery (re-announce, redial) can happen after the heal. The remote
// side cannot be told (no packet reaches it) and stays half-open until
// its own traffic fails the same way.
//
//p2p:token called from the delivery/drop paths, which run inside the kernel loop
func (n *Network) resetConn(src *Host, m message) {
	if m.kind != kindData && m.kind != kindFin {
		return // handshakes are bounded by HandshakeTimeout already
	}
	c := src.conns.get(m.connID)
	if c == nil {
		return
	}
	if n.tracer != nil {
		n.tracer.Add(n.k.Now(), "net.reset", m.src.Addr.String(), "conn %d to %v reset", m.connID, m.dst)
	}
	src.conns.del(m.connID)
	c.closed = true
	c.abort()
}

// reconfigurePipe applies a runtime configuration change to one pipe
// and notifies the link model when it keeps per-pipe state of its own
// (the flow model re-solves the affected component). A no-op change —
// the new configuration equals the current one — is invisible: no
// cursor touch, no model notification, no trace record. That identity
// is load-bearing: the reconfiguration property tests require an
// identical-config reconfigure to be trace-identical to none.
func (n *Network) reconfigurePipe(p *netem.Pipe, cfg netem.PipeConfig) {
	old := p.Config()
	if cfg == old {
		return
	}
	if n.tracer != nil {
		n.tracer.Add(n.k.Now(), "net.reconf", p.Name(),
			"bw %d->%d delay %v->%v loss %g->%g", old.Bandwidth, cfg.Bandwidth,
			old.Delay, cfg.Delay, old.Loss, cfg.Loss)
	}
	// A batching model drains its coalesced churn before the config
	// changes, so the batch settles under the configuration it happened
	// under and the re-solve below observes settled rates.
	if fm, ok := n.model.(netem.FlushableModel); ok {
		fm.FlushBatch()
	}
	p.Reconfigure(cfg)
	if rm, ok := n.model.(netem.ReconfigurableModel); ok {
		rm.PipeReconfigured(p)
	}
}

// SetLinkClass re-rates a host's access link to a new class at the
// current virtual instant — P2PLab's Dummynet pipes reconfigured at run
// time. In-flight serializations are re-rated (netem.Pipe.Reconfigure)
// and, under the flow model, the affected components are re-solved.
func (n *Network) SetLinkClass(h *Host, class topo.LinkClass) {
	n.reconfigurePipe(h.up, netem.PipeConfig{Bandwidth: class.Up, Delay: class.Latency, Loss: class.Loss})
	n.reconfigurePipe(h.down, netem.PipeConfig{Bandwidth: class.Down, Delay: class.Latency, Loss: class.Loss})
}

// SetLinkLoss overrides the random-loss probability of a host's access
// link in both directions (a loss burst); the rest of the configuration
// is untouched.
func (n *Network) SetLinkLoss(h *Host, loss float64) {
	up := h.up.Config()
	up.Loss = loss
	n.reconfigurePipe(h.up, up)
	down := h.down.Config()
	down.Loss = loss
	n.reconfigurePipe(h.down, down)
}

// SetLinkUp raises or lowers a host's network interface. While down,
// every transmission attempt from or to the host is dropped (reliable
// traffic retries with backoff, so a short flap heals transparently).
func (n *Network) SetLinkUp(h *Host, up bool) {
	if h.linkDown == !up {
		return
	}
	h.linkDown = !up
	if n.tracer != nil {
		state := "up"
		if !up {
			state = "down"
		}
		n.tracer.Add(n.k.Now(), "net.link", h.addr.String(), "link %s", state)
	}
}

// SetTrace attaches an event log: every transmitted and delivered
// message is recorded (net.send, net.deliver, net.drop), and a
// flow-model network additionally records rate changes (net.flow).
// Tracing large swarms is expensive; prefer a bounded log.
func (n *Network) SetTrace(l *trace.Log) {
	n.tracer = l
	if t, ok := n.model.(interface{ SetTrace(*trace.Log) }); ok {
		t.SetTrace(l)
	}
}

// NetworkStats aggregates network-wide counters.
type NetworkStats struct {
	MessagesSent      uint64
	MessagesDelivered uint64
	MessagesDropped   uint64
	Retransmits       uint64
	BytesDelivered    uint64
	// RuleDenied counts transmission attempts dropped by a firewall
	// ActionDeny rule (each retransmission attempt of the same message
	// counts once, mirroring how partitions account drops).
	RuleDenied uint64
}

// NewNetwork creates a network on kernel k. fabric may be nil.
func NewNetwork(k *sim.Kernel, fabric Fabric, cfg Config) *Network {
	var model netem.LinkModel
	switch cfg.Model {
	case netem.ModelFlow:
		model = flow.NewWithConfig(k, flow.Config{Window: cfg.FlowWindow})
	default:
		model = netem.NewPipeModel(k)
	}
	n := &Network{
		k:      k,
		fabric: fabric,
		cfg:    cfg,
		model:  model,
		hosts:  make(map[ip.Addr]*Host),
	}
	_, n.pipeWalk = model.(*netem.PipeModel)
	n.initObs()
	return n
}

// Obs returns the network's metric registry, or nil when the network
// runs uninstrumented. Protocol layers (bt) use it to register their
// own instruments.
func (n *Network) Obs() *obs.Registry { return n.cfg.Obs }

// LinkModel returns the network's link model; a flow-model network
// returns the *flow.Model, whose Stats expose sharing activity.
func (n *Network) LinkModel() netem.LinkModel { return n.model }

// FlowStats returns the flow engine's counters and true when the
// network runs the flow model, or a zero value and false otherwise.
func (n *Network) FlowStats() (flow.Stats, bool) {
	if fm, ok := n.model.(*flow.Model); ok {
		return fm.Stats(), true
	}
	return flow.Stats{}, false
}

// Rules returns the network firewall table, or nil when the network
// runs without one. The table may be mutated at run time (scenario
// policy churn); under netem.ClassifierIndexed the index follows
// incrementally.
func (n *Network) Rules() *netem.RuleSet { return n.cfg.Rules }

// Kernel returns the kernel the network runs on.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Stats returns a snapshot of network counters.
func (n *Network) Stats() NetworkStats { return n.stats }

// AddHost registers a virtual node with the given address and access
// link. Pass zero-valued PipeConfigs for an unconstrained host (e.g. a
// tracker on a LAN).
func (n *Network) AddHost(addr ip.Addr, up, down netem.PipeConfig) (*Host, error) {
	if _, dup := n.hosts[addr]; dup {
		return nil, fmt.Errorf("%w: %v", ErrHostExists, addr)
	}
	h := &Host{
		net:      n,
		addr:     addr,
		up:       netem.NewPipe(n.k, addr.String()+"/up", up),
		down:     netem.NewPipe(n.k, addr.String()+"/down", down),
		ports:    make(map[ip.Port]*portEntry),
		nextPort: 49152,
		meter:    SyscallMeter{Costs: n.cfg.SyscallCosts},
	}
	n.hosts[addr] = h
	n.order = append(n.order, h)
	return h, nil
}

// AddHostClass registers a host whose access link follows a topology
// link class.
func (n *Network) AddHostClass(addr ip.Addr, class topo.LinkClass) (*Host, error) {
	up := netem.PipeConfig{Bandwidth: class.Up, Delay: class.Latency, Loss: class.Loss}
	down := netem.PipeConfig{Bandwidth: class.Down, Delay: class.Latency, Loss: class.Loss}
	return n.AddHost(addr, up, down)
}

// Host returns the host registered at addr, or nil.
func (n *Network) Host(addr ip.Addr) *Host { return n.hosts[addr] }

// Hosts returns all hosts in registration order. The slice is shared;
// do not mutate.
func (n *Network) Hosts() []*Host { return n.order }

// PopulateTopology creates one host per node of every leaf group,
// addressed sequentially inside the group prefix starting at offset 1.
// It returns the hosts in creation order.
func (n *Network) PopulateTopology(t *topo.Topology) ([]*Host, error) {
	var hosts []*Host
	for _, g := range t.LeafGroups() {
		for i := 0; i < g.Nodes; i++ {
			h, err := n.AddHostClass(g.Prefix.Nth(uint32(i+1)), g.Class)
			if err != nil {
				return nil, err
			}
			hosts = append(hosts, h)
		}
	}
	return hosts, nil
}

// msgKind discriminates wire messages.
type msgKind int

const (
	kindSyn msgKind = iota
	kindSynAck
	kindRst
	kindData
	kindFin
	kindDatagram
	kindEchoReq
	kindEchoRep
)

// message is one unit of transmission through the emulated network.
type message struct {
	kind     msgKind
	src, dst ip.Endpoint
	size     int // payload bytes, excluding header overhead
	payload  []byte
	meta     any    // protocol object for sparse payloads
	connID   uint64 // connection demultiplexing
	seq      uint64 // per-connection data sequence number
	echoID   uint64
}

func (m *message) wireSize(cfg *Config) int { return m.size + cfg.HeaderBytes }

// transmit schedules a message from src through every pipe on the path
// and delivers it at the destination host. reliable messages are
// retransmitted on loss up to MaxRetransmits. It returns false if the
// path is administratively denied or the destination is unknown; either
// way the message counts as sent, so MessagesSent = MessagesDelivered +
// MessagesDropped + messages in flight at every instant.
//
//p2p:token transmit runs on the sender's simulated goroutine or an event callback
func (n *Network) transmit(src *Host, m message, reliable bool) bool {
	n.stats.MessagesSent++
	dst := n.hosts[m.dst.Addr]
	if dst == nil {
		n.stats.MessagesDropped++
		return false
	}
	var route Route
	if n.fabric != nil {
		route = n.fabric.Route(m.src.Addr, m.dst.Addr, m.wireSize(&n.cfg))
	}
	if route.Drop {
		n.stats.MessagesDropped++
		return false
	}
	if n.tracer != nil {
		n.tracer.NetSend(n.k.Now(), m.src.Addr, m.wireSize(&n.cfg), m.dst, int(m.kind))
	}
	x := n.acquireXfer()
	x.src, x.dst, x.m, x.route = src, dst, m, route
	x.reliable, x.tries = reliable, 0
	x.start = n.k.LoopNow().Add(route.Cost)
	x.size = m.wireSize(&n.cfg)
	x.attempt()
	return true
}

// xfer is the pooled state of one message's journey through the network:
// the path, the current hop, the retransmission count. Its callbacks
// (step through a constrained pipe, link-model completion, deliver,
// retry) are method values bound once at pool entry, so vnet's share of
// the per-message transmit path schedules with zero allocations in
// steady state under either link model.
type xfer struct {
	n        *Network
	src, dst *Host
	m        message
	route    Route
	size     int // wire size, header included
	tries    int
	start    sim.Time // current attempt's start instant
	reliable bool

	path    []*netem.Pipe
	pathBuf [4]*netem.Pipe // inline storage for the common 2-hop path
	hop     int            // next pipe to charge (pipe model)
	t       sim.Time       // arrival instant at path[hop] (pipe model)

	stepFn    func()               // bound x.step
	doneFn    func(sim.Time, bool) // bound x.done
	deliverFn func()               // bound x.deliver
	retryFn   func()               // bound x.retry
	next      *xfer                // free list
}

// acquireXfer takes an xfer off the pool or builds one, binding its
// callback closures exactly once.
func (n *Network) acquireXfer() *xfer {
	x := n.freeXfer
	if x != nil {
		n.freeXfer = x.next
		x.next = nil
		return x
	}
	x = &xfer{n: n}
	x.stepFn = x.step
	x.doneFn = x.done
	x.deliverFn = x.deliver
	x.retryFn = x.retry
	return x
}

// releaseXfer returns a finished xfer to the pool, dropping payload and
// route references so pooled entries do not pin message data.
func (n *Network) releaseXfer(x *xfer) {
	x.m = message{}
	x.route = Route{}
	x.src, x.dst = nil, nil
	x.next = n.freeXfer
	n.freeXfer = x
}

// attempt runs one transmission attempt starting at x.start: the link
// model carries the message over the path (sender up-link, fabric pipes,
// firewall pipes, receiver down-link), then the fixed route latency
// applies and the message is delivered. A dropped attempt of a reliable
// message retries with exponential backoff from the attempt's start
// instant (failed).
//
//p2p:token
func (x *xfer) attempt() {
	n := x.n
	// A blocked path (partition or downed interface) drops the attempt
	// before any pipe is charged: partitions drop rather than queue
	// (DESIGN.md decision 6), and retransmission is what heals.
	if n.pathBlocked(x.src, x.dst) {
		x.failed()
		return
	}
	// Firewall classification (DESIGN.md decision 7). Every attempt is
	// classified — each packet traversal pays the rule-evaluation cost,
	// as in ipfw — so a deny rule added or removed mid-run takes effect
	// on the next retransmission, exactly like a partition.
	var ruled []*netem.Pipe
	if n.cfg.Rules != nil {
		v := n.cfg.Rules.Eval(x.m.src.Addr, x.m.dst.Addr)
		// The scan is paid before the verdict applies (as in ipfw, and
		// as virt.Cluster.Route orders it): a denied attempt still
		// advances its retransmission schedule by the evaluation cost.
		x.start = x.start.Add(v.Cost)
		if v.Deny {
			n.stats.RuleDenied++
			if n.tracer != nil {
				n.tracer.Add(n.k.Now(), "net.deny", x.m.src.Addr.String(),
					"%d B to %v denied by firewall", x.size, x.m.dst)
			}
			x.failed()
			return
		}
		ruled = v.Pipes
	}
	need := 2 + len(x.route.Pipes) + len(ruled)
	switch {
	case need <= len(x.pathBuf):
		x.path = x.pathBuf[:0]
	case cap(x.path) >= need:
		x.path = x.path[:0]
	default:
		x.path = make([]*netem.Pipe, 0, need)
	}
	x.path = append(x.path, x.src.up)
	x.path = append(x.path, x.route.Pipes...)
	x.path = append(x.path, ruled...)
	x.path = append(x.path, x.dst.down)
	if n.pipeWalk {
		x.hop, x.t = 0, x.start
		x.step()
		return
	}
	n.model.Transfer(x.start, x.size, x.path, n.k.Rand(), x.doneFn)
}

// step is the pipe model's walk: it charges pipes from x.hop onward,
// continuing inline through unconstrained pipes and parking on an event
// at each constrained pipe's exit instant — the pooled twin of
// netem.PipeModel.Transfer's hop recursion (the reference walk;
// TestPipeWalkMatchesPipeModel pins the two together), kept here because
// a pooled walker behind LinkModel costs a second pooled object per
// parked hop (DESIGN.md decision 5).
//
//p2p:token
func (x *xfer) step() {
	n := x.n
	for {
		if x.hop == len(x.path) {
			x.done(x.t, true)
			return
		}
		exit, ok := x.path[x.hop].ScheduleAt(x.t, x.size, n.k.Rand())
		if !ok {
			x.failed()
			return
		}
		x.hop++
		if exit == x.t {
			continue // unconstrained pipe: next hop inline
		}
		x.t = exit
		n.k.Schedule(exit, x.stepFn)
		return
	}
}

// done is the link model's completion callback (netem.LinkModel.Transfer):
// the message left the last pipe at exit, or the attempt was dropped.
//
//p2p:token
func (x *xfer) done(exit sim.Time, ok bool) {
	if !ok {
		x.failed()
		return
	}
	x.n.k.Schedule(exit.Add(x.route.Latency), x.deliverFn)
}

// deliver lands the message on the destination host and recycles the
// xfer. The message and destination are copied out first: deliver may
// synchronously trigger sends that reuse this pooled entry.
//
//p2p:token
func (x *xfer) deliver() {
	n := x.n
	n.stats.MessagesDelivered++
	n.stats.BytesDelivered += uint64(x.size)
	if n.tracer != nil {
		n.tracer.NetDeliver(n.k.Now(), x.m.dst.Addr, x.size, x.m.src)
	}
	m, dst := x.m, x.dst
	n.releaseXfer(x)
	dst.deliver(m)
}

// retry launches the next attempt from the current instant.
//
//p2p:token
func (x *xfer) retry() {
	x.tries++
	x.start = x.n.k.LoopNow()
	x.attempt()
}

// failed handles a dropped attempt: backoff-retry for reliable messages
// with budget left, otherwise account the drop, reset the sender-side
// connection if reliable, and recycle the xfer.
//
//p2p:token
func (x *xfer) failed() {
	n := x.n
	if x.reliable && x.tries < n.cfg.MaxRetransmits {
		n.stats.Retransmits++
		n.k.Schedule(x.start.Add(n.cfg.RTO*(1<<uint(x.tries))), x.retryFn)
		return
	}
	n.stats.MessagesDropped++
	if n.tracer != nil {
		n.tracer.Add(n.k.Now(), "net.drop", x.m.src.Addr.String(),
			"%d B to %v lost after %d attempt(s)", x.size, x.m.dst, x.tries+1)
	}
	if x.reliable {
		n.resetConn(x.src, x.m)
	}
	n.releaseXfer(x)
}
