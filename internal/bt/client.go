package bt

import (
	"slices"
	"sort"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/vnet"
)

// ClientConfig tunes a BitTorrent client, defaults matching the 4.x
// mainline client the paper instruments.
type ClientConfig struct {
	// MaxPeers bounds total connections (mainline: ~40 usable).
	MaxPeers int
	// MaxInitiate bounds connections we initiate (mainline: 30-ish;
	// further peers come from inbound connections).
	MaxInitiate int
	// PipelineDepth is the outstanding-request backlog per peer
	// (mainline: ~5). 0 auto-scales to the torrent's blocks-per-piece
	// (clamped to [5,256]): a fixed 5-deep pipeline is 80 KiB in
	// flight, which caps an elephant flow at 80 KiB per RTT no matter
	// how fat the pipe — the snapshot-sync regime (2 MiB pieces over
	// long fat paths) needs the window to grow with the piece size.
	PipelineDepth int
	// MinPeers triggers a re-announce when the peer set shrinks below.
	MinPeers int

	// UploadRate caps payload upload in bytes/second via a
	// deterministic virtual-time token bucket (0: unlimited). The
	// asymmetric pair mirrors anacrolix's UploadRateLimiter /
	// DownloadRateLimiter knobs in Erigon's snapshot downloader.
	UploadRate int64
	// DownloadRate caps payload download in bytes/second (0:
	// unlimited); enforced by gating request issue, so the cap is on
	// requested bytes per virtual second.
	DownloadRate int64
	// WebSeeds lists always-available block servers (see WebSeed) the
	// client attaches as permanently-unchoked pseudo-peers.
	WebSeeds []ip.Endpoint
}

// DefaultClientConfig mirrors BitTorrent 4.x defaults.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		MaxPeers:      40,
		MaxInitiate:   30,
		PipelineDepth: 5,
		MinPeers:      20,
	}
}

// Fixed BitTorrent 4.x client behaviour.
const (
	// peerPort is the listening port (mainline: 6881).
	peerPort ip.Port = 6881
	// uploadSlots is the number of simultaneous unchokes, including the
	// optimistic one (mainline: 4).
	uploadSlots = 4
	// rechokeInterval is the choker period (mainline: 10 s).
	rechokeInterval = 10 * time.Second
	// optimisticRounds is how many rechoke rounds an optimistic unchoke
	// lasts (mainline: 3 → 30 s).
	optimisticRounds = 3
	// requestTimeout re-issues a block request that has not been
	// answered (covers choked-then-dropped requests).
	requestTimeout = 60 * time.Second
	// endgameDup is how many peers a block may be requested from in
	// endgame mode.
	endgameDup = 2
	// reannounceMin is the minimum spacing between need-driven
	// announces.
	reannounceMin = 60 * time.Second
	// tick is the internal maintenance timer granularity.
	tick = 5 * time.Second
)

// Progress is one point of a client's download trajectory.
type Progress struct {
	At    sim.Time
	Bytes int64
}

// eventKind discriminates client-loop events.
type eventKind int

const (
	evMsg eventKind = iota
	evPeerJoined
	evPeerClosed
	evPeers
	evTick
	evStop
	evUpPump   // upload token bucket refilled: drain queued uploads
	evFillWake // download token bucket refilled: resume request issue
	evDialDone // a dial attempt resolved, successful or not
)

type event struct {
	kind  eventKind
	peer  *peer
	msg   *Msg // one of the torrent's interned messages, or a bitfield
	peers []ip.Endpoint
	ivl   time.Duration // tracker announce interval (evPeers)
}

// pieceProgress is the whole download state of one partial piece:
// which of its blocks have arrived, and from how many peers each block
// is requested (at most endgameDup). The bitmap is multi-word: a single
// uint64 silently broke pieces with more than 64 blocks (any piece over
// 1 MiB), where 1<<b overflowed to zero, the duplicate check never
// fired and the piece "completed" with blocks missing.
type pieceProgress struct {
	received []uint64 // block-arrival bitmap
	count    int      // blocks received
	req      []uint8  // peers each block is requested from
}

func newPieceProgress(blocks int) *pieceProgress {
	return &pieceProgress{received: make([]uint64, (blocks+63)/64), req: make([]uint8, blocks)}
}

func (pp *pieceProgress) has(b int) bool {
	return pp.received[b>>6]&(1<<uint(b&63)) != 0
}

func (pp *pieceProgress) set(b int) {
	pp.received[b>>6] |= 1 << uint(b&63)
}

// Client is one BitTorrent node: leecher or seeder depending on the
// pieces it starts with. All protocol logic runs in a single simulated
// goroutine fed by an event queue; peer connections push into the
// queue via conn sinks, so a client costs O(1) goroutines regardless
// of peer count.
type Client struct {
	h       *vnet.Host
	meta    *MetaInfo
	hs      Handshake // the handshake sent to and expected from every peer
	have    *Bitfield // pieces held; set in place as pieces complete
	cfg     ClientConfig
	tracker ip.Endpoint

	events *sim.Chan[event]
	peers  []*peer
	byAddr map[ip.Addr]*peer
	picker *Picker

	// partials[i] is piece i's download state while it is partial, nil
	// before it starts and after it completes. partialOrder lists the
	// partial pieces ascending: block selection visits them in that
	// order.
	partials     []*pieceProgress
	partialOrder []int

	// Reusable scratch for per-event work, so the hot paths allocate
	// nothing in steady state.
	rankScratch  []rankedPeer
	topScratch   []int
	candScratch  []rankedPeer
	blockScratch []int

	started      sim.Time
	finished     sim.Time
	done         bool
	progress     []Progress
	lastAnnounce sim.Time
	rechokeRound int
	dialing      int
	// tickAt is the instant the tick task started: its evTicks fall on
	// tickAt + n·tick, the lattice whose ticks index the peers' rate
	// sums (see RateEstimator).
	tickAt sim.Time

	// depth is the effective pipeline depth (PipelineDepth, or the
	// auto-scaled blocks-per-piece value when the config says 0).
	depth int
	// announceIvl is the re-announce interval the tracker handed out
	// in its last response; periodic announces keep the registration
	// alive (0 until the first response: DefaultAnnounceInterval).
	announceIvl time.Duration
	// Rate limiting (nil: unlimited). Uploads that outrun the bucket
	// queue in upQueue and drain on evUpPump; request issue that
	// outruns the download bucket re-arms via evFillWake.
	upLim         *TokenBucket
	downLim       *TokenBucket
	upQueue       []pendingUpload
	upPumpArmed   bool
	fillWakeArmed bool
	// wsConns counts connected web-seed pseudo-peers inside c.peers;
	// they are excluded from the MaxPeers/MaxInitiate/MinPeers budgets
	// (a CDN connection is not swarm capacity).
	wsConns int

	stopped  bool
	listener *vnet.Listener

	om      btMetrics // obs instruments on the network's registry
	sawPeer bool      // first peer admitted (time-to-first-peer observed)

	// OnComplete, if set, fires once when the download finishes.
	OnComplete func(c *Client, at sim.Time)
}

// NewClient creates a client on host h for the given torrent, holding
// the pieces set in have (Full for a seeder, NewBitfield for a fresh
// leecher), announcing to tracker. The client sets pieces in have as
// they complete, so a caller that keeps it can resume a later client
// from it. Call Start to run it.
//
//p2p:tokenentry constructed either during pre-Run setup (host goroutine is the only accessor) or from a simulated goroutine (resume path); single-threaded either way
func NewClient(h *vnet.Host, meta *MetaInfo, have *Bitfield, tracker ip.Endpoint, cfg ClientConfig) *Client {
	k := h.Network().Kernel()
	c := &Client{
		h:        h,
		meta:     meta,
		hs:       Handshake{InfoHash: meta.InfoHash()},
		have:     have,
		cfg:      cfg,
		tracker:  tracker,
		events:   sim.NewChan[event](k, 0),
		byAddr:   make(map[ip.Addr]*peer),
		picker:   NewPicker(meta.NumPieces(), k.Rand()),
		partials: make([]*pieceProgress, meta.NumPieces()),
		om:       newBTMetrics(h.Network().Obs()),
	}
	if have.Complete() {
		c.done = true
	}
	c.depth = cfg.PipelineDepth
	if c.depth <= 0 {
		// Auto-scale: keep one full piece in flight per peer. 256 KiB
		// pieces keep the mainline depth of 5 per the clamp; 2 MiB
		// pieces get 128 (2 MiB in flight), enough to fill a long fat
		// pipe instead of stalling at 80 KiB/RTT.
		c.depth = (meta.PieceLength + BlockLength - 1) / BlockLength
		if c.depth < 5 {
			c.depth = 5
		}
		if c.depth > 256 {
			c.depth = 256
		}
	}
	// Both buckets hold twice the piece length (Erigon uses
	// 2×DefaultPieceSize), at least NewTokenBucket's 128 KiB.
	burst := 2 * int64(meta.PieceLength)
	c.upLim = NewTokenBucket(cfg.UploadRate, burst)
	c.downLim = NewTokenBucket(cfg.DownloadRate, burst)
	if auditHook != nil {
		auditHook(c)
	}
	return c
}

// auditHook, when set, is handed every client NewClient builds. Only
// the package's tests set it: it is how they reach the clients of a
// scenario run to check their request counts (Client.AuditRequests).
var auditHook func(*Client)

// FinishedAt returns the completion instant (zero until done; seeders
// report zero).
func (c *Client) FinishedAt() sim.Time { return c.finished }

// Progress returns the piece-completion trajectory.
func (c *Client) Progress() []Progress { return c.progress }

// BytesDone returns the bytes of the pieces held.
func (c *Client) BytesDone() int64 {
	var n int64
	for i := 0; i < c.have.Len(); i++ {
		if c.have.Has(i) {
			n += int64(c.meta.PieceSize(i))
		}
	}
	return n
}

// Start launches the client's goroutines: listener, ticker, announcer
// and the main event loop.
func (c *Client) Start() {
	k := c.h.Network().Kernel()
	name := "bt-" + c.h.Addr().String()
	k.Go(name, func(p *sim.Proc) {
		c.started = p.Now()
		l, err := c.h.Listen(p, peerPort)
		if err != nil {
			return
		}
		c.listener = l
		p.Go(name+"/accept", func(p *sim.Proc) { l.Serve(p, "bt-handshake-in", c.handshakeIn) })
		p.Go(name+"/tick", func(p *sim.Proc) {
			c.tickAt = p.Now()
			for !c.stopped {
				p.Sleep(tick)
				c.events.TrySend(event{kind: evTick})
			}
		})
		c.announceAsync(p, EventStarted)
		if !c.done {
			for _, ws := range c.cfg.WebSeeds {
				c.dialWebSeed(p, ws)
			}
		}
		c.loop(p)
	})
}

// dialWebSeed connects to a web seed and attaches it as a pseudo-peer:
// no handshake (the server speaks raw block requests), a full
// bitfield, never choking. Runs in a transient goroutine like dialPeer
// but outside the dial budget — a CDN connection is not swarm
// capacity.
func (c *Client) dialWebSeed(p *sim.Proc, ep ip.Endpoint) {
	p.Go("bt-webseed-dial", func(p *sim.Proc) {
		conn, err := c.h.Dial(p, ep)
		if err != nil {
			return
		}
		pr := c.attach(conn)
		pr.webseed = true
		pr.peerChoking = false
		pr.bits = Full(c.meta.NumPieces())
		c.post(evPeerJoined, pr)
	})
}

// Stop takes the client offline abruptly (a churn departure): it closes
// the listener and every peer connection, tells the tracker, and ends
// the event loop. Its Bitfield keeps the pieces it completed, so a
// later client on the same host can resume from them.
//
//p2p:token
func (c *Client) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	c.events.TrySend(event{kind: evStop})
}

// Stopped reports whether Stop has been called.
func (c *Client) Stopped() bool { return c.stopped }

// onStop runs inside the event loop when a Stop request arrives.
func (c *Client) onStop(p *sim.Proc) {
	if c.listener != nil {
		c.listener.Close()
	}
	for _, pr := range c.peers {
		pr.closed = true
		pr.conn.Close(p)
	}
	c.peers = nil
	c.byAddr = make(map[ip.Addr]*peer)
	c.announceAsync(p, EventStopped)
	c.events.Close()
}

// left reports bytes remaining, for tracker announces.
func (c *Client) left() int64 { return c.meta.Length - c.BytesDone() }

// announceAsync runs a tracker announce in a transient goroutine and
// feeds the resulting peer list back as an event.
func (c *Client) announceAsync(p *sim.Proc, evt string) {
	c.lastAnnounce = p.Now()
	p.Go("bt-announce", func(p *sim.Proc) {
		req := &announceReq{infoHash: c.hs.InfoHash, port: int64(peerPort), left: c.left(), numWant: DefaultNumWant, event: evt}
		peers, ivl, err := AnnounceRequest(p, c.h, c.tracker, req)
		if err != nil {
			return
		}
		c.postPeers(peers, ivl)
	})
}

// handshakeIn admits an inbound connection: exchange handshakes in
// the connection's own task, then hand the peer to the main loop.
func (c *Client) handshakeIn(p *sim.Proc, cn *vnet.Conn) {
	if !recvHandshake(p, cn, 30*time.Second, &c.hs) || sendHandshake(p, cn, &c.hs) != nil {
		cn.Close(p)
		return
	}
	c.admit(cn)
}

// dialPeer initiates an outbound connection in a transient goroutine.
func (c *Client) dialPeer(p *sim.Proc, ep ip.Endpoint) {
	c.dialing++
	c.om.dialAttempts.Inc()
	p.Go("bt-handshake-out", func(p *sim.Proc) {
		defer c.post(evDialDone, nil)
		conn, err := c.h.Dial(p, ep)
		if err != nil {
			c.om.dialFailures.Inc()
			return
		}
		if sendHandshake(p, conn, &c.hs) != nil || !recvHandshake(p, conn, 30*time.Second, &c.hs) {
			conn.Close(p)
			return
		}
		c.admit(conn)
	})
}

// postPeers hands the main loop an announce's peer list and interval,
// from a frame of its own (see post).
//
//p2p:token
//go:noinline
func (c *Client) postPeers(peers []ip.Endpoint, ivl time.Duration) {
	c.events.TrySend(event{kind: evPeers, peers: peers, ivl: ivl})
}

// admit registers an established, handshaken connection with the main
// loop. Runs in transient goroutines.
//
//p2p:token
func (c *Client) admit(conn *vnet.Conn) {
	c.post(evPeerJoined, c.attach(conn))
}

// post sends the main loop an event of kind about pr from a frame of
// its own: a handshake task's frames sit under its dial, its sends and
// attach's allocations, and the event literal took 112 B of each.
//
//p2p:token
//go:noinline
func (c *Client) post(kind eventKind, pr *peer) {
	c.events.TrySend(event{kind: kind, peer: pr})
}

// attach wraps an established connection in a peer whose messages and
// close notification feed the main loop. The caller sends the join
// event.
//
//p2p:token
func (c *Client) attach(conn *vnet.Conn) *peer {
	pr := newPeer(conn, conn.RemoteAddr().Addr, c.meta.NumPieces())
	conn.SetSink(func(meta any, closed bool) {
		if closed {
			c.events.TrySend(event{kind: evPeerClosed, peer: pr})
			return
		}
		if m, ok := meta.(*Msg); ok {
			c.events.TrySend(event{kind: evMsg, peer: pr, msg: m})
		}
	})
	return pr
}

// loop is the client's single-threaded protocol engine.
func (c *Client) loop(p *sim.Proc) {
	for {
		ev, err := c.events.Recv(p)
		if err != nil {
			return
		}
		switch ev.kind {
		case evPeerJoined:
			c.onJoin(p, ev.peer)
		case evPeerClosed:
			c.onClose(p, ev.peer)
		case evDialDone:
			c.dialing--
		case evMsg:
			if ev.peer.closed {
				continue
			}
			c.onMsg(p, ev.peer, ev.msg)
		case evPeers:
			if ev.ivl > 0 {
				c.announceIvl = ev.ivl
			}
			if !c.stopped {
				c.onPeers(p, ev.peers)
			}
		case evTick:
			if !c.stopped {
				c.onTick(p)
			}
		case evUpPump:
			if !c.stopped {
				c.onUpPump(p)
			}
		case evFillWake:
			if !c.stopped {
				c.onFillWake(p)
			}
		case evStop:
			c.onStop(p)
			return
		}
	}
}

func (c *Client) onJoin(p *sim.Proc, pr *peer) {
	// The connection can die between admit and this event: a remote at
	// its MaxPeers cap accepts the handshake, then rejects and closes in
	// its own onJoin, and our sink's close notification may be queued
	// ahead of the join. onClose then runs first on a never-registered
	// peer. Registering it here anyway would leave a closed zombie in
	// c.peers forever — it counts toward MinPeers (suppressing the
	// starvation re-announce) and occupies byAddr (blocking a re-dial),
	// wedging the client with no live connections.
	if pr.closed {
		return
	}
	// Note: the dial budget is NOT released here. dialPeer's deferred
	// evDialDone decrements c.dialing exactly once per attempt,
	// successful or not; decrementing again for initiated peers made
	// every successful dial count twice, drifting c.dialing negative and
	// letting onPeers dial past MaxInitiate.
	if pr.webseed {
		// A web seed bypasses the swarm-capacity budget and the peer
		// wire protocol: no bitfield exchange (its bitfield is full by
		// construction), no interest signaling, no choking either way.
		if c.byAddr[pr.addr] != nil {
			// Mark closed so the sink's close event cannot reach onClose
			// and un-count this peer's (never-added) full bitfield.
			pr.closed = true
			pr.conn.Close(p)
			return
		}
		c.registerPeer(pr)
		c.wsConns++
		c.picker.AddBitfield(pr.bits)
		pr.useful = usefulCount(pr.bits, c.have)
		pr.amInterested = !c.done && pr.useful > 0
		c.fillRequests(p, pr)
		return
	}
	// A peer turned away here goes through onClose like any departing
	// one. It was never registered, but its messages may already have
	// run: attach flushes what the connection buffered during the
	// handshake into the mailbox ahead of this join event, so a Bitfield
	// or Have may have counted its pieces in the picker. Closing only the
	// conn would leave those counts behind for good: no close event
	// follows a local Close.
	if c.byAddr[pr.addr] != nil || pr.addr == c.h.Addr() {
		c.onClose(p, pr)
		return
	}
	if len(c.peers)-c.wsConns >= c.cfg.MaxPeers {
		// At capacity, a seed prefers a peer it can serve over a
		// redundant seed-to-seed connection: evict the first mutual-seed
		// conn (peer-list order, deterministic) and admit the newcomer.
		// Without this, a tightly capped swarm (snapshot regime: 5 conns
		// per client) can wedge — the late joiner is rejected by every
		// peer forever once the others form a saturated clique of seeds.
		var victim *peer
		if c.done {
			for _, pr2 := range c.peers {
				if !pr2.webseed && pr2.bits.Complete() {
					victim = pr2
					break
				}
			}
		}
		if victim == nil {
			c.onClose(p, pr)
			return
		}
		c.onClose(p, victim)
	}
	c.registerPeer(pr)
	if !c.sawPeer {
		c.sawPeer = true
		c.om.ttfp.Observe(p.Now().Sub(c.started).Seconds())
	}
	if c.have.Count() > 0 {
		pr.send(p, &Msg{ID: MsgBitfield, Bits: c.have.Clone()})
	}
}

// registerPeer appends a peer to the ordered peer list and the address
// index, recording its slice position for O(1) departure.
func (c *Client) registerPeer(pr *peer) {
	pr.idx = len(c.peers)
	c.peers = append(c.peers, pr)
	c.byAddr[pr.addr] = pr
}

// onClose takes a departed or turned-away peer out of the client: its
// place in the peer list, its availability and its open requests. Its
// rate estimators are plain values and go with it.
func (c *Client) onClose(p *sim.Proc, pr *peer) {
	if pr.closed {
		return
	}
	pr.closed = true
	if pr.webseed && pr.idx >= 0 {
		c.wsConns--
	}
	pr.conn.Close(p)
	// Ordered removal by recorded index, not a pointer scan. The order
	// of c.peers is trace-visible (Have broadcasts, rechoke ranking), so
	// later peers shift down rather than swap-filling the hole.
	if i := pr.idx; i >= 0 && i < len(c.peers) && c.peers[i] == pr {
		copy(c.peers[i:], c.peers[i+1:])
		c.peers[len(c.peers)-1] = nil
		c.peers = c.peers[:len(c.peers)-1]
		for j := i; j < len(c.peers); j++ {
			c.peers[j].idx = j
		}
		pr.idx = -1
	}
	// Only drop the index entry this peer owns: a rejected duplicate
	// connection closing must not evict the live peer at the same
	// address.
	if c.byAddr[pr.addr] == pr {
		delete(c.byAddr, pr.addr)
	}
	c.picker.RemoveBitfield(pr.bits)
	for _, e := range pr.inflight {
		c.releaseRequest(int(e.piece), int(e.block))
	}
}

// releaseRequest drops one request for block b of piece pi. Only a
// partial piece counts its requests: a request that outlives its piece
// (an endgame duplicate still in flight when the piece completes) has
// no count left to drop.
func (c *Client) releaseRequest(pi, b int) {
	if pp := c.partials[pi]; pp != nil {
		pp.req[b]--
	}
}

// onMsg handles one message from pr. m is shared (see Msg): no handler
// writes through it.
func (c *Client) onMsg(p *sim.Proc, pr *peer, m *Msg) {
	switch m.ID {
	case MsgBitfield:
		c.picker.RemoveBitfield(pr.bits)
		pr.bits = m.Bits
		c.picker.AddBitfield(pr.bits)
		pr.useful = usefulCount(pr.bits, c.have)
		c.updateInterest(p, pr)
	case MsgHave:
		if m.Index < 0 || m.Index >= c.meta.NumPieces() {
			return // names no piece: dropped before it touches any state
		}
		if !pr.bits.Has(m.Index) {
			pr.bits.Set(m.Index)
			c.picker.AddHave(m.Index)
			if !c.have.Has(m.Index) {
				pr.useful++
			}
		}
		c.updateInterest(p, pr)
	case MsgChoke:
		pr.peerChoking = true
		for _, e := range pr.inflight {
			c.releaseRequest(int(e.piece), int(e.block))
		}
		pr.inflight = pr.inflight[:0]
	case MsgUnchoke:
		pr.peerChoking = false
		c.fillRequests(p, pr)
	case MsgInterested:
		pr.peerInterested = true
	case MsgNotInterested:
		pr.peerInterested = false
	case MsgRequest:
		c.onRequest(p, pr, m)
	case MsgPiece:
		c.onBlock(p, pr, m)
	case MsgCancel:
		// Uploads are sent immediately on request in this model, so a
		// cancel that arrives later has nothing to remove.
	}
}

// updateInterest signals a change in our interest in a peer. The
// predicate reads the incrementally maintained useful-piece counter
// (see peer.useful) instead of rescanning the bitfield per wire event.
func (c *Client) updateInterest(p *sim.Proc, pr *peer) {
	want := !c.done && pr.useful > 0
	if want != pr.amInterested {
		pr.amInterested = want
		if pr.webseed {
			return // no interest wire traffic to a block server
		}
		id := MsgNotInterested
		if want {
			id = MsgInterested
		}
		pr.send(p, c.meta.flag(id))
	}
}

// onRequest serves an upload request if the peer is unchoked and the
// request names a block (MetaInfo.blockOf) of a piece the client has.
func (c *Client) onRequest(p *sim.Proc, pr *peer, m *Msg) {
	if pr.amChoking {
		return // stale request racing our choke
	}
	b, ok := c.meta.blockOf(m.Index, m.Begin, m.Length)
	if !ok || !c.have.Has(m.Index) {
		return
	}
	out := c.meta.block(MsgPiece, m.Index, b)
	n := int64(m.Length)
	if c.upLim != nil {
		// Pace uploads through the token bucket. FIFO: once anything
		// is queued, later blocks queue behind it even if the bucket
		// has refilled, so send order never depends on block size.
		if len(c.upQueue) > 0 {
			c.upQueue = append(c.upQueue, pendingUpload{pr: pr, m: out, n: n})
			return
		}
		if wait := c.upLim.Take(p.Now(), n); wait > 0 {
			c.upQueue = append(c.upQueue, pendingUpload{pr: pr, m: out, n: n})
			c.armWake(evUpPump, &c.upPumpArmed, wait)
			return
		}
	}
	if pr.send(p, out) == nil {
		now := p.Now()
		pr.upRate.Add(now, c.tickOf(now), n)
	}
}

// pendingUpload is one rate-limited piece message awaiting tokens.
type pendingUpload struct {
	pr *peer
	m  *Msg
	n  int64
}

// armWake schedules a kind wake-up (evUpPump or evFillWake) after the
// given virtual delay; *armed keeps at most one timer of the kind
// outstanding, and the kind's handler clears it.
func (c *Client) armWake(kind eventKind, armed *bool, wait time.Duration) {
	if *armed {
		return
	}
	*armed = true
	c.h.Network().Kernel().After(wait, func() {
		c.events.TrySend(event{kind: kind})
	})
}

// onUpPump drains the upload queue as far as the refilled token
// bucket allows, re-arming for the remainder.
func (c *Client) onUpPump(p *sim.Proc) {
	c.upPumpArmed = false
	now := p.Now()
	i := 0
	for ; i < len(c.upQueue); i++ {
		e := c.upQueue[i]
		if e.pr.closed || e.pr.amChoking {
			continue // peer departed or was choked while queued
		}
		if wait := c.upLim.Take(now, e.n); wait > 0 {
			c.armWake(evUpPump, &c.upPumpArmed, wait)
			break
		}
		if e.pr.send(p, e.m) == nil {
			e.pr.upRate.Add(now, c.tickOf(now), e.n)
		}
	}
	c.upQueue = append(c.upQueue[:0], c.upQueue[i:]...)
}

// onFillWake resumes request issue after the download bucket
// refilled, in peer-list order (the same order onTick uses).
func (c *Client) onFillWake(p *sim.Proc) {
	c.fillWakeArmed = false
	for _, pr := range c.peers {
		if !pr.peerChoking && pr.amInterested && !pr.closed {
			c.fillRequests(p, pr)
		}
	}
}

// onBlock ingests a downloaded block. A piece message that names no
// block of the torrent (MetaInfo.blockOf: an index out of range, an
// offset that is not a block boundary or lies past the piece's end, a
// length that is not the block's) is dropped before it touches any
// state: it would otherwise leave a phantom partial piece behind, or
// index past the picker's tables. A piece completes when its last
// block arrives; no bytes are modelled, so there is nothing else to
// check.
func (c *Client) onBlock(p *sim.Proc, pr *peer, m *Msg) {
	b, ok := c.meta.blockOf(m.Index, m.Begin, m.Length)
	if !ok {
		return
	}
	pi := m.Index
	if pr.inflightDel(pi, b) {
		c.releaseRequest(pi, b)
	}
	now := p.Now()
	pr.downRate.Add(now, c.tickOf(now), int64(m.Length))

	if c.have.Has(pi) || c.done {
		c.fillRequests(p, pr)
		return
	}
	pp := c.partials[pi]
	if pp == nil {
		pp = c.startPiece(pi)
	}
	if pp.has(b) {
		c.fillRequests(p, pr) // endgame duplicate
		return
	}
	pp.set(b)
	pp.count++
	if pp.count == len(pp.req) {
		c.have.Set(pi)
		c.partials[pi] = nil
		c.partialsRemove(pi)
		c.onPieceDone(p, pi)
	}
	c.fillRequests(p, pr)
}

// startPiece makes piece pi partial: it gets a progress record, joins
// the ordered partial list and leaves the picker's open pieces.
func (c *Client) startPiece(pi int) *pieceProgress {
	pp := newPieceProgress(c.meta.BlocksIn(pi))
	c.partials[pi] = pp
	c.partialsInsert(pi)
	c.picker.MarkPartial(pi)
	return pp
}

// partialsInsert adds piece pi to the ordered partial-piece list,
// keeping it sorted so block selection never re-sorts per request.
func (c *Client) partialsInsert(pi int) {
	i := sort.SearchInts(c.partialOrder, pi)
	c.partialOrder = append(c.partialOrder, 0)
	copy(c.partialOrder[i+1:], c.partialOrder[i:])
	c.partialOrder[i] = pi
}

// partialsRemove drops piece pi from the ordered partial-piece list.
func (c *Client) partialsRemove(pi int) {
	i := sort.SearchInts(c.partialOrder, pi)
	if i < len(c.partialOrder) && c.partialOrder[i] == pi {
		c.partialOrder = append(c.partialOrder[:i], c.partialOrder[i+1:]...)
	}
}

// onPieceDone broadcasts Have, records progress and checks completion.
func (c *Client) onPieceDone(p *sim.Proc, piece int) {
	now := p.Now()
	c.om.pieces.Inc()
	c.progress = append(c.progress, Progress{At: now, Bytes: c.BytesDone()})
	c.picker.MarkHave(piece)
	for _, pr := range c.peers {
		if pr.bits.Has(piece) {
			pr.useful--
		}
		if !pr.webseed {
			pr.send(p, c.meta.have(piece))
		}
		// Cancel endgame duplicates for this piece, in block order: the
		// cancels are wire messages, so their send order must not
		// depend on the in-flight set's order. The piece's record is
		// gone, so there is no request count to drop.
		dups := c.blockScratch[:0]
		for _, e := range pr.inflight {
			if int(e.piece) == piece {
				dups = append(dups, int(e.block))
			}
		}
		slices.Sort(dups)
		c.blockScratch = dups[:0]
		for _, b := range dups {
			pr.send(p, c.meta.block(MsgCancel, piece, b))
			pr.inflightDel(piece, b)
		}
	}
	if c.have.Complete() && !c.done {
		c.done = true
		c.finished = now
		c.om.completions.Inc()
		c.announceAsync(p, EventCompleted)
		for _, pr := range c.peers {
			c.updateInterest(p, pr)
		}
		if c.OnComplete != nil {
			c.OnComplete(c, now)
		}
	}
}

// onPeers dials tracker-provided peers we are not yet connected to.
func (c *Client) onPeers(p *sim.Proc, eps []ip.Endpoint) {
	for _, ep := range eps {
		if len(c.peers)-c.wsConns+c.dialing >= c.cfg.MaxInitiate {
			return
		}
		if ep.Addr == c.h.Addr() || c.byAddr[ep.Addr] != nil {
			continue
		}
		c.dialPeer(p, ep)
	}
}

// onTick drives the choker, request timeouts and re-announces.
func (c *Client) onTick(p *sim.Proc) {
	now := p.Now()
	// Request timeouts.
	for _, pr := range c.peers {
		for i := 0; i < len(pr.inflight); {
			e := pr.inflight[i]
			if now.Sub(e.at) > requestTimeout {
				last := len(pr.inflight) - 1
				pr.inflight[i] = pr.inflight[last]
				pr.inflight = pr.inflight[:last]
				c.releaseRequest(int(e.piece), int(e.block))
				continue // the swapped-in entry now sits at i
			}
			i++
		}
		if !pr.peerChoking && pr.amInterested {
			c.fillRequests(p, pr)
		}
	}
	// Rechoke on its own period (tick granularity).
	if now.Sub(c.started) >= time.Duration(c.rechokeRound+1)*rechokeInterval {
		c.rechokeRound++
		c.rechoke(p)
	}
	// Re-announce when starved for peers.
	if !c.done && len(c.peers)-c.wsConns < c.cfg.MinPeers &&
		now.Sub(c.lastAnnounce) >= reannounceMin {
		c.announceAsync(p, EventEmpty)
		return
	}
	// Honor the tracker's announce interval: periodic re-announces keep
	// the registration alive (the tracker expires peers that miss ~2
	// intervals) and pick up swarm changes even when the peer set is
	// healthy. Before this path existed the interval was parsed off the
	// wire and dropped, and a client with MinPeers satisfied never
	// announced again. Completed clients keep the historical behavior —
	// announce on complete/stop only — so a seeder's trace does not
	// change with this fix.
	if !c.done {
		ivl := c.announceIvl
		if ivl <= 0 {
			ivl = DefaultAnnounceInterval
		}
		if now.Sub(c.lastAnnounce) >= ivl {
			c.announceAsync(p, EventEmpty)
		}
	}
}

// tickOf returns the index of the client tick that instant now lies in.
func (c *Client) tickOf(now sim.Time) int { return int(now.Sub(c.tickAt) / tick) }

// rankedPeer is one interested peer with its rate snapshot and its
// position in Client.peers — rate descending, position ascending is the
// total order the choker ranks by (identical to a stable sort of the
// peer list by rate).
type rankedPeer struct {
	pr   *peer
	rate float64
	ord  int
}

// betterRanked is the choker's strict total order.
func betterRanked(a, b rankedPeer) bool {
	return a.rate > b.rate || (a.rate == b.rate && a.ord < b.ord)
}

// rechoke implements tit-for-tat: unchoke the uploadSlots-1 best
// interested peers (by their upload rate to us while leeching, by our
// upload rate to them while seeding) plus one optimistic unchoke
// rotated every optimisticRounds rounds.
//
// Selection is top-K over a single pass of rate snapshots instead of an
// insertion sort of all interested peers: the old sort re-evaluated
// RateEstimator.Rate (a window trim) inside the comparator, O(n²) trims
// per round. Rates are evaluated exactly once per peer here, and the
// unchoke set is tracked by a per-round stamp on the peer rather than a
// freshly allocated map. The ranking order — rate descending, peer-list
// position breaking ties — is the same one the stable sort produced, so
// choke decisions and the optimistic RNG draw are bit-identical.
func (c *Client) rechoke(p *sim.Proc) {
	now := p.Now()
	k := c.tickOf(now)
	round := c.rechokeRound
	// Snapshot interested peers and their rates, in peer-list order.
	ranked := c.rankScratch[:0]
	for ord, pr := range c.peers {
		if !pr.peerInterested {
			continue
		}
		r := pr.downRate.Rate(now, k)
		if c.done {
			r = pr.upRate.Rate(now, k)
		}
		ranked = append(ranked, rankedPeer{pr: pr, rate: r, ord: ord})
	}
	c.rankScratch = ranked[:0]
	// Top-K regular unchokes by bounded insertion (K = uploadSlots-1,
	// a handful), marked with this round's stamp.
	const regular = uploadSlots - 1
	top := c.topScratch[:0]
	for i := range ranked {
		n := len(top)
		if n == regular && !betterRanked(ranked[i], ranked[top[n-1]]) {
			continue
		}
		pos := n
		for pos > 0 && betterRanked(ranked[i], ranked[top[pos-1]]) {
			pos--
		}
		if n < regular {
			top = append(top, 0)
			copy(top[pos+1:], top[pos:n])
		} else {
			copy(top[pos+1:], top[pos:n-1])
		}
		top[pos] = i
	}
	c.topScratch = top[:0]
	for _, i := range top {
		ranked[i].pr.unchokeStamp = round
	}
	// Optimistic slot: rotate every optimisticRounds rounds.
	rotate := round%optimisticRounds == 1
	var current *peer
	for _, pr := range c.peers {
		if pr.optimistic {
			current = pr
		}
	}
	if current == nil || rotate || current.unchokeStamp == round {
		if current != nil {
			current.optimistic = false
		}
		// Candidates are the interested peers outside the regular set;
		// the RNG draws a rank into their rate ordering, so select the
		// k-th best by partial selection over the (small) remainder.
		cand := c.candScratch[:0]
		for _, rp := range ranked {
			if rp.pr.unchokeStamp != round {
				cand = append(cand, rp)
			}
		}
		c.candScratch = cand[:0]
		if len(cand) > 0 {
			k := c.h.Network().Kernel().Rand().Intn(len(cand))
			for j := 0; j <= k; j++ {
				best := j
				for l := j + 1; l < len(cand); l++ {
					if betterRanked(cand[l], cand[best]) {
						best = l
					}
				}
				cand[j], cand[best] = cand[best], cand[j]
			}
			current = cand[k].pr
			current.optimistic = true
		} else {
			current = nil
		}
	}
	if current != nil {
		current.unchokeStamp = round
	}
	for _, pr := range c.peers {
		want := pr.unchokeStamp == round
		if want && pr.amChoking {
			pr.amChoking = false
			c.om.unchokes.Inc()
			pr.send(p, c.meta.flag(MsgUnchoke))
		} else if !want && !pr.amChoking {
			pr.amChoking = true
			c.om.chokes.Inc()
			pr.send(p, c.meta.flag(MsgChoke))
		}
	}
}

// fillRequests keeps a peer's request pipeline full.
func (c *Client) fillRequests(p *sim.Proc, pr *peer) {
	if c.done || pr.peerChoking || !pr.amInterested || pr.closed {
		return
	}
	now := p.Now()
	for len(pr.inflight) < c.depth {
		pi, b := c.nextBlock(pr)
		if pi < 0 {
			return
		}
		length := c.meta.BlockSize(pi, b)
		if c.downLim != nil {
			// Gate request issue on the download bucket: the cap is on
			// requested bytes per virtual second, which converges to
			// received bytes per second once the pipeline drains. The
			// picked block is not yet counted as requested, so it is
			// re-offered (same piece, same block) when the bucket wakes
			// us — selection stays deterministic.
			if wait := c.downLim.Take(now, int64(length)); wait > 0 {
				c.armWake(evFillWake, &c.fillWakeArmed, wait)
				return
			}
		}
		pr.inflight = append(pr.inflight, inflightEntry{piece: int32(pi), block: int32(b), at: now})
		c.partials[pi].req[b]++
		if pr.send(p, c.meta.block(MsgRequest, pi, b)) != nil {
			return
		}
	}
}

// nextBlock selects the next block to request from a peer and returns
// its piece and block number (piece -1: nothing to request). First the
// lowest unrequested block of a partial piece, then block 0 of a fresh
// piece from the picker, then endgame duplication. Partial pieces are
// visited in ascending index order via the maintained c.partialOrder
// list: block selection is trace-visible and must be deterministic for
// a fixed seed.
func (c *Client) nextBlock(pr *peer) (int, int) {
	// 1. Unrequested blocks of partial pieces the peer has.
	for _, pi := range c.partialOrder {
		if !pr.bits.Has(pi) {
			continue
		}
		if b := c.freeBlock(pi, pr, 0); b >= 0 {
			return pi, b
		}
	}
	// 2. A fresh piece: request block 0 (further blocks follow, by step
	// 1, as the pipeline refills).
	if pi := c.picker.Pick(c.have, pr.bits); pi >= 0 {
		c.startPiece(pi)
		return pi, 0
	}
	// 3. Endgame: duplicate outstanding blocks up to endgameDup.
	for _, pi := range c.partialOrder {
		if !pr.bits.Has(pi) {
			continue
		}
		if b := c.freeBlock(pi, pr, endgameDup-1); b >= 0 {
			return pi, b
		}
	}
	return -1, 0
}

// freeBlock finds the lowest block of partial piece pi that has not
// arrived, is not in flight at this peer, and is requested from at most
// maxDup peers.
func (c *Client) freeBlock(pi int, pr *peer, maxDup int) int {
	pp := c.partials[pi]
	for b, n := range pp.req {
		if int(n) > maxDup || pp.has(b) || pr.inflightHas(pi, b) {
			continue
		}
		return b
	}
	return -1
}
