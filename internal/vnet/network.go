// Package vnet provides virtual sockets over the emulated network: hosts
// with their own IP addresses (P2PLab's interface aliases), TCP-like
// connections and ping, all scheduled on the virtual-time kernel and
// shaped by netem pipes. A connection message is a protocol value and
// the payload size it is charged at on the wire; no bytes travel.
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
	ErrConnRefused      = errors.New("vnet: connection refused")
	ErrTimeout          = errors.New("vnet: operation timed out")
	ErrClosed           = sim.ErrClosed // Recv and Accept return their Chan's error as is
	ErrNetUnreachable   = errors.New("vnet: network unreachable")
	ErrHostExists       = errors.New("vnet: host address already registered")
	ErrPortAlreadyBound = errors.New("vnet: port already bound")
	ErrSeqExhausted     = errors.New("vnet: connection sequence space exhausted")
)

// Route is what a message pays on the fabric besides its pipes.
type Route struct {
	// Latency is fixed additional one-way latency (inter-group latency).
	Latency time.Duration
	// Cost is CPU time charged to the sender before transmission
	// (firewall rule evaluation).
	Cost time.Duration
}

// Fabric routes messages between virtual node addresses. The zero
// fabric (nil) adds nothing: only access links apply.
type Fabric interface {
	// Route appends to path, in order, the pipes a src→dst message
	// traverses between the source host's up-pipe and the destination
	// host's down-pipe, and returns the extended path and the route.
	Route(src, dst ip.Addr, path []*netem.Pipe) ([]*netem.Pipe, Route)
}

// TopoFabric is the simplest fabric: inter-group latency from a
// topology, no extra pipes. It models the paper's emulation model
// without the physical-cluster folding layer.
type TopoFabric struct {
	Topo *topo.Topology
}

// Route implements Fabric.
func (f *TopoFabric) Route(src, dst ip.Addr, path []*netem.Pipe) ([]*netem.Pipe, Route) {
	return path, Route{Latency: f.Topo.GroupLatency(src, dst)}
}

// Config tunes network-wide constants.
type Config struct {
	// HandshakeTimeout bounds Dial.
	HandshakeTimeout time.Duration
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
	// table, an ActionDeny drops the attempt before any pipe is charged
	// (reliable traffic then behaves exactly as under a partition:
	// retransmit with backoff, reset on exhaustion, heal transparently
	// if the rule is removed in time), and the evaluation cost —
	// Visited × netem.DefaultPerRuleCost, the paper's Fig 6 artifact —
	// is charged to virtual time ahead of serialization.
	// nil (the default) skips classification entirely: traces are
	// byte-identical to a network without this field.
	Rules *netem.RuleSet
	// Obs is the network's metric registry; nil (the default) gives the
	// network a private one. Collectors expose NetworkStats and
	// connection, pipe and flow-solver state at snapshot time, the
	// layers above count into it, and no trace depends on it.
	Obs *obs.Registry
}

// DefaultConfig returns the standard configuration.
func DefaultConfig() Config {
	return Config{
		HandshakeTimeout: 30 * time.Second,
	}
}

const (
	// rto is the first retransmission timeout of a reliable (conn)
	// message dropped on its path; each retry doubles it.
	rto = 200 * time.Millisecond
	// MaxRetransmits bounds retransmission attempts per message.
	MaxRetransmits = 8
	// HeaderBytes is the per-message wire overhead added to payload
	// sizes (TCP/IP header equivalent).
	HeaderBytes = 40
)

// Network is the virtual internet: a registry of hosts plus the fabric
// connecting them.
type Network struct {
	k      *sim.Kernel
	fabric Fabric
	cfg    Config
	flow   *flow.Model // nil under the pipe model
	hosts  map[ip.Addr]*Host
	order  []*Host // deterministic iteration
	nextID uint32  // connection ids, trace labels only (wrap after 2³² dials)

	// Registered connections, by established flag, and xfers acquired
	// and not yet released: the obs gauges' sources.
	connsEstablished, connsHalfOpen int
	inFlight                        int

	parts      []*partition // active partitions, creation order
	nextPartID int

	stats  NetworkStats
	tracer *trace.Log

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
func (n *Network) resetConn(m message) {
	if m.kind != kindData && m.kind != kindFin {
		return // handshakes are bounded by HandshakeTimeout already
	}
	c := m.from
	if !c.registered {
		return
	}
	if n.tracer != nil {
		n.tracer.Add(n.k.Now(), "net.reset", m.src.Addr.String(), "conn %d to %v reset", c.id, m.dst)
	}
	c.deregister()
	c.closed = true
	c.eof()
}

// reconfigurePipe applies a runtime configuration change to one pipe
// and, under the flow model, re-solves the affected component. A no-op
// change — the new configuration equals the current one — is
// invisible: no cursor touch, no model notification, no trace record.
// That identity is load-bearing: the reconfiguration property tests
// require an identical-config reconfigure to be trace-identical to none.
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
	if n.flow == nil {
		p.Reconfigure(cfg)
		return
	}
	// A batching engine drains its coalesced churn before the config
	// changes, so the batch settles under the configuration it happened
	// under and the re-solve below observes settled rates.
	n.flow.FlushBatch()
	p.Reconfigure(cfg)
	n.flow.PipeReconfigured(p)
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
	if n.flow != nil {
		n.flow.SetTrace(l)
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
	n := &Network{
		k:      k,
		fabric: fabric,
		cfg:    cfg,
		hosts:  make(map[ip.Addr]*Host),
	}
	if cfg.Obs == nil {
		n.cfg.Obs = obs.NewRegistry()
	}
	if cfg.Model == netem.ModelFlow {
		n.flow = flow.NewWithConfig(k, flow.Config{Window: cfg.FlowWindow})
	}
	n.initObs()
	return n
}

// Obs returns the network's metric registry. Protocol layers (bt,
// chord) register their own instruments on it.
func (n *Network) Obs() *obs.Registry { return n.cfg.Obs }

// Kernel returns the kernel the network runs on.
func (n *Network) Kernel() *sim.Kernel { return n.k }

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
		ports:    make(map[ip.Port]*Listener),
		nextPort: 49152,
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

// PopulateTopology creates one host per node of every group,
// addressed sequentially inside the group prefix starting at offset 1.
// It returns the hosts in creation order.
func (n *Network) PopulateTopology(t *topo.Topology) ([]*Host, error) {
	var hosts []*Host
	for _, g := range t.Groups() {
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

// msgKind discriminates wire messages. net.send trace lines print the
// kind as a number, so the golden digests pin every value: 5 stays
// unused and the echo kinds stay 6 and 7.
type msgKind int

const (
	kindSyn msgKind = iota
	kindSynAck
	kindRst
	kindData
	kindFin
	_
	kindEchoReq
	kindEchoRep
)

// message is one unit of transmission through the emulated network.
// It names the sockets at both ends: a connection message its sending
// and receiving Conn (a SYN has no receiver yet, an RST needs no
// sender), an echo its pingWaiter as meta.
type message struct {
	kind     msgKind
	src, dst ip.Endpoint
	size     int // payload bytes, excluding header overhead
	meta     any // a connection message's protocol value; an echo's *pingWaiter
	from, to *Conn
	seq      uint32 // per-connection data sequence number
}

func (m *message) wireSize() int { return m.size + HeaderBytes }

// transmit schedules a message from src through every pipe on the path
// and delivers it at dst. reliable messages are retransmitted on loss
// up to MaxRetransmits. It returns false if dst is nil (an address no
// host holds); the message counts as sent either way, so MessagesSent =
// MessagesDelivered + MessagesDropped + inFlight at every instant.
//
// It is post and launch with a message built by the caller. The
// per-message sends of a connection (Dial's SYN, SendMeta, Close's FIN)
// call the two themselves and write the message into the pooled xfer,
// so no 72-byte message is built in their frames and copied: they run
// on per-message tasks, whose frames must fit the first 2 KiB stack
// (DESIGN decision 11).
//
//p2p:token transmit runs on the sender's simulated goroutine or an event callback
func (n *Network) transmit(src, dst *Host, m message, reliable bool) bool {
	x := n.post(src, dst, reliable)
	if x == nil {
		return false
	}
	x.m = m
	x.launch()
	return true
}

// post counts one message from src to dst as sent and returns the
// pooled xfer that will carry it, its message zero for the caller to
// fill before launch. It returns nil, counting the message dropped, if
// dst is nil.
//
//p2p:token
func (n *Network) post(src, dst *Host, reliable bool) *xfer {
	n.stats.MessagesSent++
	if dst == nil {
		n.stats.MessagesDropped++
		return nil
	}
	x := n.acquireXfer()
	x.src, x.dst, x.reliable, x.tries = src, dst, reliable, 0
	return x
}

// launch traces x's message, builds its path and makes the first
// attempt. The path — the sender's up-link, the fabric's pipes, the
// receiver's down-link — is fixed when the message is sent, so it is
// built here once, into the xfer's inline buffer, and every attempt
// walks it.
//
//p2p:token
func (x *xfer) launch() {
	n := x.n
	x.size = x.m.wireSize()
	if n.tracer != nil {
		n.tracer.NetSend(n.k.Now(), x.m.src.Addr, x.size, x.m.dst, int(x.m.kind))
	}
	x.path = append(x.pathBuf[:0], x.src.up)
	x.latency, x.start = 0, n.k.LoopNow()
	if n.fabric != nil {
		x.route()
	}
	x.path = append(x.path, x.dst.down)
	x.attempt()
}

// route appends the fabric's pipes to x's path and applies the route's
// latency and cost. Every network but a test's has a fabric; route is
// kept out of launch's frame, which stays on the stack under the rest
// of the send.
//
//p2p:token
//go:noinline
func (x *xfer) route() {
	var r Route
	x.path, r = x.n.fabric.Route(x.m.src.Addr, x.m.dst.Addr, x.path)
	x.latency, x.start = r.Latency, x.start.Add(r.Cost)
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
	latency  time.Duration // the route's fixed one-way latency
	size     int           // wire size, header included
	tries    int
	start    sim.Time // current attempt's start instant
	reliable bool

	path    []*netem.Pipe
	pathBuf [6]*netem.Pipe // inline storage: up-link, ≤ 4 fabric pipes, down-link
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
	n.inFlight++
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

// releaseXfer returns a finished xfer to the pool, dropping message and
// host references so pooled entries do not pin protocol values or
// connections.
func (n *Network) releaseXfer(x *xfer) {
	n.inFlight--
	x.m = message{}
	x.src, x.dst = nil, nil
	x.next = n.freeXfer
	n.freeXfer = x
}

// attempt runs one transmission attempt starting at x.start: the link
// model carries the message over the path launch built, then the
// fixed route latency applies and the message is delivered. A dropped
// attempt of a reliable message retries with exponential backoff from
// the attempt's start instant (failed).
//
//p2p:token
func (x *xfer) attempt() {
	n := x.n
	// A blocked path (partition or downed interface) drops the attempt
	// before any pipe is charged: partitions drop rather than queue
	// (DESIGN.md decision 6), and retransmission is what heals.
	if n.pathBlocked(x.src, x.dst) || n.cfg.Rules != nil && x.denied() {
		x.failed()
		return
	}
	if n.flow != nil {
		x.transfer()
		return
	}
	x.hop, x.t = 0, x.start
	x.step()
}

// denied classifies the attempt through the firewall (DESIGN.md
// decision 7) and reports whether a deny rule drops it. Every attempt
// is classified — each packet traversal pays the rule-evaluation cost,
// as in ipfw — so a deny rule added or removed mid-run takes effect on
// the next retransmission, exactly like a partition. It is kept out of
// attempt's frame, as transfer is: both are absent from a pipe-model
// network without rules.
//
//p2p:token
//go:noinline
func (x *xfer) denied() bool {
	n := x.n
	v := n.cfg.Rules.Eval(x.m.src.Addr, x.m.dst.Addr)
	// The scan is paid before the verdict applies, as in ipfw: a
	// denied attempt still advances its retransmission schedule by
	// the evaluation cost.
	x.start = x.start.Add(v.Cost)
	if !v.Deny {
		return false
	}
	n.stats.RuleDenied++
	if n.tracer != nil {
		n.tracer.Add(n.k.Now(), "net.deny", x.m.src.Addr.String(),
			"%d B to %v denied by firewall", x.size, x.m.dst)
	}
	return true
}

// transfer hands the attempt to the flow model.
//
//p2p:token
//go:noinline
func (x *xfer) transfer() {
	n := x.n
	n.flow.Transfer(x.start, x.size, x.path, n.k.Rand(), x.doneFn)
}

// step is the pipe model's walk: it charges pipes from x.hop onward,
// continuing inline through unconstrained pipes and parking on an event
// at each constrained pipe's exit instant — the pooled twin of
// netem.PipeModel.Transfer's hop recursion (the reference walk;
// TestPipeWalkMatchesPipeModel pins the two together), kept here because
// a pooled walker inside netem costs a second pooled object per parked
// hop (DESIGN.md decision 5).
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

// done is the completion callback of the pipe walk and of
// flow.Model.Transfer: the message left the last pipe at exit, or the
// attempt was dropped.
//
//p2p:token
func (x *xfer) done(exit sim.Time, ok bool) {
	if !ok {
		x.failed()
		return
	}
	x.n.k.Schedule(exit.Add(x.latency), x.deliverFn)
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
	if x.reliable && x.tries < MaxRetransmits {
		n.stats.Retransmits++
		n.k.Schedule(x.start.Add(rto*(1<<uint(x.tries))), x.retryFn)
		return
	}
	n.stats.MessagesDropped++
	if n.tracer != nil {
		n.tracer.Add(n.k.Now(), "net.drop", x.m.src.Addr.String(),
			"%d B to %v lost after %d attempt(s)", x.size, x.m.dst, x.tries+1)
	}
	if x.reliable {
		n.resetConn(x.m)
	}
	n.releaseXfer(x)
}
