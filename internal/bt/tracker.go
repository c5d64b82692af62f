package bt

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/vnet"
)

// TrackerPort is the customary BitTorrent tracker port.
const TrackerPort ip.Port = 6969

// DefaultNumWant is how many peers an announce returns (mainline: 50).
const DefaultNumWant = 50

// MaxNumWant caps a client-requested numwant. Without the cap a single
// announce with numwant=10^9 makes the tracker build (and bencode) a
// response listing the entire swarm, which at 10k peers is a
// megabyte-scale reply per request — real trackers clamp for the same
// reason.
const MaxNumWant = 200

// Announce events, as in the tracker HTTP protocol.
const (
	EventStarted   = "started"
	EventCompleted = "completed"
	EventStopped   = "stopped"
	EventEmpty     = ""
)

// DefaultAnnounceInterval is the re-announce interval a tracker hands
// out unless configured otherwise (mainline trackers: 30 min).
const DefaultAnnounceInterval = 30 * time.Minute

// TrackerConfig tunes a tracker's announce lifecycle. The zero value
// means defaults, so struct-literal construction in tests keeps
// working.
type TrackerConfig struct {
	// Interval is the re-announce interval handed to clients in every
	// announce response (0: DefaultAnnounceInterval).
	Interval time.Duration
	// ExpireAfter is how many announce intervals a registered peer may
	// stay silent before it is pruned (0: 2). Peers that depart
	// gracefully announce EventStopped and leave immediately; expiry
	// is for the ones that vanish — crashed processes, partitioned
	// hosts — whose stale endpoints would otherwise be handed out
	// forever, burning other peers' dial budgets on dead addresses.
	ExpireAfter int
}

// TrackerStats counts tracker activity.
type TrackerStats struct {
	Announces int
	Started   int
	Completed int
	Stopped   int
}

// Tracker is the rendezvous service: it registers announcing peers per
// info-hash and returns random peer subsets. It speaks bencoded
// messages over vnet connections (the real tracker speaks HTTP GET; the
// payload and the information flow are the same — documented
// substitution).
type Tracker struct {
	host   *vnet.Host
	cfg    TrackerConfig
	swarms map[[20]byte]*swarmPeers
	stats  TrackerStats

	// permScratch is the reusable buffer for the per-announce random
	// permutation: rand.Perm allocates len(order) ints per call, which
	// at 10k registered peers is ~80 KB per announce.
	permScratch []int
}

type swarmPeers struct {
	order []trackerPeer
	index map[ip.Endpoint]int
}

type trackerPeer struct {
	ep       ip.Endpoint
	complete bool
	// lastSeen is the virtual instant of the peer's latest announce;
	// expiry prunes peers silent for ExpireAfter intervals. Virtual
	// time, never wall time: expiry decisions are trace-visible (they
	// change which endpoints later announces hand out), so they must
	// be a pure function of the simulation's own clock.
	lastSeen sim.Time
}

// NewTracker creates a tracker with the default announce lifecycle on
// the given host and starts its accept loop on TrackerPort.
func NewTracker(host *vnet.Host) *Tracker {
	return NewTrackerConfig(host, TrackerConfig{})
}

// NewTrackerConfig is NewTracker with an explicit announce lifecycle
// (zero fields take defaults).
func NewTrackerConfig(host *vnet.Host, cfg TrackerConfig) *Tracker {
	t := &Tracker{host: host, cfg: cfg, swarms: make(map[[20]byte]*swarmPeers)}
	host.Network().Kernel().Go("tracker", t.serve)
	return t
}

// interval returns the configured announce interval, defaulted.
func (t *Tracker) interval() time.Duration {
	if t.cfg.Interval > 0 {
		return t.cfg.Interval
	}
	return DefaultAnnounceInterval
}

// expireAfter returns the silence budget before a peer is pruned.
func (t *Tracker) expireAfter() time.Duration {
	n := t.cfg.ExpireAfter
	if n <= 0 {
		n = 2
	}
	return time.Duration(n) * t.interval()
}

// Stats returns a snapshot of announce counters.
func (t *Tracker) Stats() TrackerStats { return t.stats }

// PeerCount returns how many peers are registered for a torrent.
func (t *Tracker) PeerCount(infoHash [20]byte) int {
	sw := t.swarms[infoHash]
	if sw == nil {
		return 0
	}
	return len(sw.order)
}

// CompletedCount returns how many registered peers have completed.
func (t *Tracker) CompletedCount(infoHash [20]byte) int {
	sw := t.swarms[infoHash]
	if sw == nil {
		return 0
	}
	n := 0
	for _, p := range sw.order {
		if p.complete {
			n++
		}
	}
	return n
}

func (t *Tracker) serve(p *sim.Proc) {
	l, err := t.host.Listen(p, TrackerPort)
	if err != nil {
		return
	}
	for {
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		c := conn
		p.Go("tracker-conn", func(p *sim.Proc) { t.handle(p, c) })
	}
}

func (t *Tracker) handle(p *sim.Proc, c *vnet.Conn) {
	defer c.Close(p)
	pk, ok, err := c.RecvTimeout(p, 30*time.Second)
	if err != nil || !ok {
		return
	}
	resp, err := t.announce(pk.Data, pk.From.Addr)
	if err != nil {
		enc, _ := Bencode(map[string]any{"failure reason": err.Error()})
		c.Send(p, enc)
		return
	}
	c.Send(p, resp)
}

// announce processes one bencoded announce and returns the bencoded
// response.
//
//p2p:token
func (t *Tracker) announce(req []byte, from ip.Addr) ([]byte, error) {
	v, err := Bdecode(req)
	if err != nil {
		return nil, err
	}
	dict, ok := v.(map[string]any)
	if !ok {
		return nil, errors.New("announce is not a dict")
	}
	ihRaw, _ := dict["info_hash"].([]byte)
	if len(ihRaw) != 20 {
		return nil, errors.New("bad info_hash")
	}
	var ih [20]byte
	copy(ih[:], ihRaw)
	portN, _ := dict["port"].(int64)
	event := ""
	if e, ok := dict["event"].([]byte); ok {
		event = string(e)
	}
	left, _ := dict["left"].(int64)
	numWant := int64(DefaultNumWant)
	if nw, ok := dict["numwant"].(int64); ok && nw > 0 {
		numWant = nw
		if numWant > MaxNumWant {
			numWant = MaxNumWant
		}
	}
	self := ip.Endpoint{Addr: from, Port: ip.Port(portN)}

	sw := t.swarms[ih]
	if sw == nil {
		sw = &swarmPeers{index: make(map[ip.Endpoint]int)}
		t.swarms[ih] = sw
	}
	now := t.host.Network().Kernel().Now()
	// Prune peers that vanished without EventStopped before serving
	// the announce: a returning silent peer re-registers below, and a
	// fresh peer never sees the dead endpoints.
	t.expire(sw, now)
	t.stats.Announces++
	switch event {
	case EventStarted, EventEmpty, EventCompleted:
		// A peer that registers port 0 (or garbage) is unreachable:
		// handing its endpoint to other peers just burns their dial
		// budget on guaranteed-failed connections. Real trackers reject
		// these announces.
		if portN <= 0 || portN > 65535 {
			return nil, fmt.Errorf("invalid port %d", portN)
		}
		if event == EventStarted {
			t.stats.Started++
		}
		if event == EventCompleted {
			t.stats.Completed++
		}
		if i, known := sw.index[self]; known {
			sw.order[i].complete = left == 0 || event == EventCompleted
			sw.order[i].lastSeen = now
		} else {
			sw.index[self] = len(sw.order)
			sw.order = append(sw.order, trackerPeer{ep: self, complete: left == 0, lastSeen: now})
		}
	case EventStopped:
		t.stats.Stopped++
		if i, known := sw.index[self]; known {
			last := len(sw.order) - 1
			sw.index[sw.order[last].ep] = i
			sw.order[i] = sw.order[last]
			sw.order = sw.order[:last]
			delete(sw.index, self)
		}
	default:
		return nil, fmt.Errorf("unknown event %q", event)
	}

	// Random subset of other peers, like the real tracker. The shuffle
	// replicates rand.Perm's exact algorithm into a reused buffer: the
	// Intn draw sequence — and therefore the trace — is identical to
	// rng.Perm(n), without the per-announce allocation.
	rng := t.host.Network().Kernel().Rand()
	var peers []any
	if cap(t.permScratch) < len(sw.order) {
		t.permScratch = make([]int, len(sw.order))
	}
	perm := t.permScratch[:len(sw.order)]
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	for _, i := range perm {
		if len(peers) >= int(numWant) {
			break
		}
		tp := sw.order[i]
		if tp.ep == self {
			continue
		}
		peers = append(peers, map[string]any{
			"ip":   tp.ep.Addr.String(),
			"port": int64(tp.ep.Port),
		})
	}
	return Bencode(map[string]any{
		"interval": int64(t.interval() / time.Second),
		"peers":    peers,
	})
}

// expire swap-removes every registered peer silent for longer than
// the expiry budget. Swap-removal perturbs sw.order, but only when a
// peer actually expires — an expiry-free announce leaves the order,
// and therefore the response permutation's draw sequence, untouched.
func (t *Tracker) expire(sw *swarmPeers, now sim.Time) {
	ttl := t.expireAfter()
	for i := 0; i < len(sw.order); {
		if now.Sub(sw.order[i].lastSeen) <= ttl {
			i++
			continue
		}
		ep := sw.order[i].ep
		last := len(sw.order) - 1
		sw.order[i] = sw.order[last]
		sw.order = sw.order[:last]
		delete(sw.index, ep)
		if i < last {
			sw.index[sw.order[i].ep] = i
		}
		// Re-examine the swapped-in entry now at i.
	}
}

// AnnounceRequest is the client-side helper: it dials the tracker,
// sends an announce and parses the peer list and the tracker's
// re-announce interval (0 when the response carries none). Earlier
// versions read only "peers" and dropped the interval on the floor,
// so clients could never honor the tracker's announce schedule.
func AnnounceRequest(p *sim.Proc, h *vnet.Host, tracker ip.Endpoint, infoHash [20]byte,
	port ip.Port, event string, left int64, numWant int) ([]ip.Endpoint, time.Duration, error) {
	c, err := h.Dial(p, tracker)
	if err != nil {
		return nil, 0, err
	}
	defer c.Close(p)
	req, err := Bencode(map[string]any{
		"info_hash": infoHash[:],
		"peer_id":   fmt.Sprintf("%-20s", "go-p2plab-"+h.Addr().String())[:20],
		"port":      int64(port),
		"event":     event,
		"left":      left,
		"numwant":   int64(numWant),
	})
	if err != nil {
		return nil, 0, err
	}
	if err := c.Send(p, req); err != nil {
		return nil, 0, err
	}
	pk, ok, err := c.RecvTimeout(p, 30*time.Second)
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return nil, 0, vnet.ErrTimeout
	}
	v, err := Bdecode(pk.Data)
	if err != nil {
		return nil, 0, err
	}
	dict, okd := v.(map[string]any)
	if !okd {
		return nil, 0, errors.New("bt: tracker response is not a dict")
	}
	if f, bad := dict["failure reason"].([]byte); bad {
		return nil, 0, fmt.Errorf("bt: tracker failure: %s", f)
	}
	var interval time.Duration
	if sec, okI := dict["interval"].(int64); okI && sec > 0 {
		interval = time.Duration(sec) * time.Second
	}
	rawPeers, _ := dict["peers"].([]any)
	var peers []ip.Endpoint
	for _, rp := range rawPeers {
		pd, okp := rp.(map[string]any)
		if !okp {
			continue
		}
		addrB, _ := pd["ip"].([]byte)
		portN, _ := pd["port"].(int64)
		a, err := ip.ParseAddr(string(addrB))
		if err != nil {
			continue
		}
		peers = append(peers, ip.Endpoint{Addr: a, Port: ip.Port(portN)})
	}
	return peers, interval, nil
}
