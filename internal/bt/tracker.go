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
// announce with numwant=10^9 makes the tracker build (and send) a
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
// out in every announce response (mainline trackers: 30 min).
const DefaultAnnounceInterval = 30 * time.Minute

// expireAfter is how long a registered peer may stay silent, two
// announce intervals, before it is pruned. Peers that depart
// gracefully announce EventStopped and leave immediately; expiry is
// for the ones that vanish — crashed processes, partitioned hosts —
// whose stale endpoints would otherwise be handed out forever, burning
// other peers' dial budgets on dead addresses.
const expireAfter = 2 * DefaultAnnounceInterval

// Tracker is the rendezvous service: it registers announcing peers per
// info-hash and returns random peer subsets. Announces and responses
// travel over vnet connections as typed values, each charged at the
// exact length of its bencoded dict (the real tracker speaks HTTP GET;
// the bytes on the wire and the information flow are the same —
// documented substitution).
type Tracker struct {
	host   *vnet.Host
	swarms map[[20]byte]*swarmPeers

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
	ep ip.Endpoint
	// lastSeen is the virtual instant of the peer's latest announce;
	// expiry prunes peers silent for longer than expireAfter. Virtual
	// time, never wall time: expiry decisions are trace-visible (they
	// change which endpoints later announces hand out), so they must
	// be a pure function of the simulation's own clock.
	lastSeen sim.Time
}

// announceReq is one announce as the client sends it. Its bencoded
// form is a dict keyed event, info_hash, left, numwant, peer_id and
// port; the peer id is always 20 bytes and the tracker never reads it,
// so only its length is kept.
type announceReq struct {
	infoHash            [20]byte
	port, left, numWant int64
	event               string
}

// announceResp is the tracker's reply: interval and peers[ip, port],
// or, when failure is set, the single key "failure reason".
type announceResp struct {
	interval int64
	peers    []ip.Endpoint
	failure  string
}

// size is the request's bencoded length, the bytes the wire carries.
func (r *announceReq) size() int {
	return 2 + strLen(len("event")) + strLen(len(r.event)) +
		strLen(len("info_hash")) + strLen(len(r.infoHash)) +
		strLen(len("left")) + intLen(r.left) +
		strLen(len("numwant")) + intLen(r.numWant) +
		strLen(len("peer_id")) + strLen(20) +
		strLen(len("port")) + intLen(r.port)
}

// size is the response's bencoded length, the bytes the wire carries.
func (r *announceResp) size() int {
	if r.failure != "" {
		return 2 + strLen(len("failure reason")) + strLen(len(r.failure))
	}
	n := 2 + strLen(len("interval")) + intLen(r.interval) + strLen(len("peers")) + 2
	var quad [15]byte
	for _, ep := range r.peers {
		n += 2 + strLen(len("ip")) + strLen(len(ep.Addr.AppendTo(quad[:0]))) +
			strLen(len("port")) + intLen(int64(ep.Port))
	}
	return n
}

// strLen is the bencoded length of an n-byte string: "<n>:" and the bytes.
func strLen(n int) int { return decLen(int64(n)) + 1 + n }

// intLen is the bencoded length of n: "i<n>e".
func intLen(n int64) int { return decLen(n) + 2 }

// decLen is the length of n in decimal, sign included.
func decLen(n int64) int {
	l, u := 1, uint64(n)
	if n < 0 {
		l, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		l++
	}
	return l
}

// NewTracker creates a tracker on the given host and starts its accept
// loop on TrackerPort.
func NewTracker(host *vnet.Host) *Tracker {
	t := &Tracker{host: host, swarms: make(map[[20]byte]*swarmPeers)}
	host.Network().Kernel().Go("tracker", t.serve)
	return t
}

func (t *Tracker) serve(p *sim.Proc) {
	l, err := t.host.Listen(p, TrackerPort)
	if err != nil {
		return
	}
	l.Serve(p, "tracker-conn", t.handle)
}

func (t *Tracker) handle(p *sim.Proc, c *vnet.Conn) {
	defer c.Close(p)
	meta, ok, err := c.RecvTimeout(p, 30*time.Second)
	if err != nil || !ok {
		return
	}
	req, ok := meta.(*announceReq)
	if !ok {
		return
	}
	resp, err := t.announce(req, c.RemoteAddr().Addr)
	if err != nil {
		resp = &announceResp{failure: err.Error()}
	}
	c.SendMeta(p, resp.size(), resp)
}

// announce serves one announce and returns the response.
//
//p2p:token
func (t *Tracker) announce(req *announceReq, from ip.Addr) (*announceResp, error) {
	numWant := DefaultNumWant
	if req.numWant > 0 {
		numWant = int(min(req.numWant, MaxNumWant))
	}
	self := ip.Endpoint{Addr: from, Port: ip.Port(req.port)}

	sw := t.swarms[req.infoHash]
	if sw == nil {
		sw = &swarmPeers{index: make(map[ip.Endpoint]int)}
		t.swarms[req.infoHash] = sw
	}
	now := t.host.Network().Kernel().Now()
	// Prune peers that vanished without EventStopped before serving
	// the announce: a returning silent peer re-registers below, and a
	// fresh peer never sees the dead endpoints.
	t.expire(sw, now)
	switch event := req.event; event {
	case EventStarted, EventEmpty, EventCompleted:
		// A peer that registers port 0 (or garbage) is unreachable:
		// handing its endpoint to other peers just burns their dial
		// budget on guaranteed-failed connections. Real trackers reject
		// these announces.
		if req.port <= 0 || req.port > 65535 {
			return nil, fmt.Errorf("invalid port %d", req.port)
		}
		if i, known := sw.index[self]; known {
			sw.order[i].lastSeen = now
		} else {
			sw.index[self] = len(sw.order)
			sw.order = append(sw.order, trackerPeer{ep: self, lastSeen: now})
		}
	case EventStopped:
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
	if cap(t.permScratch) < len(sw.order) {
		t.permScratch = make([]int, len(sw.order))
	}
	perm := t.permScratch[:len(sw.order)]
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	peers := make([]ip.Endpoint, 0, min(numWant, len(perm)))
	for _, i := range perm {
		if len(peers) >= numWant {
			break
		}
		if ep := sw.order[i].ep; ep != self {
			peers = append(peers, ep)
		}
	}
	return &announceResp{interval: int64(DefaultAnnounceInterval / time.Second), peers: peers}, nil
}

// expire swap-removes every registered peer silent for longer than
// the expiry budget. Swap-removal perturbs sw.order, but only when a
// peer actually expires — an expiry-free announce leaves the order,
// and therefore the response permutation's draw sequence, untouched.
func (t *Tracker) expire(sw *swarmPeers, now sim.Time) {
	for i := 0; i < len(sw.order); {
		if now.Sub(sw.order[i].lastSeen) <= expireAfter {
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
// sends req and returns the peer list and the tracker's re-announce
// interval (0 when the response carries none). The peer slice is fresh
// per response and belongs to the caller. The caller builds req, and
// the connection is closed by hand, not deferred, to keep this frame
// small: the announcing task dials and sends under it.
func AnnounceRequest(p *sim.Proc, h *vnet.Host, tracker ip.Endpoint, req *announceReq) ([]ip.Endpoint, time.Duration, error) {
	c, err := h.Dial(p, tracker)
	if err != nil {
		return nil, 0, err
	}
	resp, err := exchange(p, c, req)
	c.Close(p)
	if err != nil {
		return nil, 0, err
	}
	return resp.result()
}

// result is what AnnounceRequest returns for the response r.
func (r *announceResp) result() ([]ip.Endpoint, time.Duration, error) {
	if r.failure != "" {
		return nil, 0, fmt.Errorf("bt: tracker failure: %s", r.failure)
	}
	var interval time.Duration
	if r.interval > 0 {
		interval = time.Duration(r.interval) * time.Second
	}
	return r.peers, interval, nil
}

// exchange sends req on c and reads the tracker's response.
func exchange(p *sim.Proc, c *vnet.Conn, req *announceReq) (*announceResp, error) {
	if err := c.SendMeta(p, req.size(), req); err != nil {
		return nil, err
	}
	meta, ok, err := c.RecvTimeout(p, 30*time.Second)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, vnet.ErrTimeout
	}
	resp, ok := meta.(*announceResp)
	if !ok {
		return nil, errors.New("bt: tracker response is not an announce response")
	}
	return resp, nil
}
