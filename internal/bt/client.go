package bt

import (
	"fmt"
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
	// Port is the listening port (mainline: 6881).
	Port ip.Port
	// MaxPeers bounds total connections (mainline: ~40 usable).
	MaxPeers int
	// MaxInitiate bounds connections we initiate (mainline: 30-ish;
	// further peers come from inbound connections).
	MaxInitiate int
	// UploadSlots is the number of simultaneous unchokes, including the
	// optimistic one (mainline: 4).
	UploadSlots int
	// RechokeInterval is the choker period (mainline: 10 s).
	RechokeInterval time.Duration
	// OptimisticRounds is how many rechoke rounds an optimistic unchoke
	// lasts (mainline: 3 → 30 s).
	OptimisticRounds int
	// PipelineDepth is the outstanding-request backlog per peer
	// (mainline: ~5). 0 auto-scales to the torrent's blocks-per-piece
	// (clamped to [5,256]): a fixed 5-deep pipeline is 80 KiB in
	// flight, which caps an elephant flow at 80 KiB per RTT no matter
	// how fat the pipe — the snapshot-sync regime (2 MiB pieces over
	// long fat paths) needs the window to grow with the piece size.
	PipelineDepth int
	// RequestTimeout re-issues a block request that has not been
	// answered (covers choked-then-dropped requests).
	RequestTimeout time.Duration
	// EndgameDup is how many peers a block may be requested from in
	// endgame mode.
	EndgameDup int
	// MinPeers triggers a re-announce when the peer set shrinks below.
	MinPeers int
	// ReannounceMin is the minimum spacing between need-driven
	// announces.
	ReannounceMin time.Duration
	// Tick is the internal maintenance timer granularity.
	Tick time.Duration

	// UploadRate caps payload upload in bytes/second via a
	// deterministic virtual-time token bucket (0: unlimited). The
	// asymmetric pair mirrors anacrolix's UploadRateLimiter /
	// DownloadRateLimiter knobs in Erigon's snapshot downloader.
	UploadRate int64
	// DownloadRate caps payload download in bytes/second (0:
	// unlimited); enforced by gating request issue, so the cap is on
	// requested bytes per virtual second.
	DownloadRate int64
	// RateBurst is the token-bucket capacity in bytes shared by both
	// caps (0: twice the piece length, at least 128 KiB — Erigon uses
	// 2×DefaultPieceSize).
	RateBurst int64
	// WebSeeds lists always-available block servers (see WebSeed) the
	// client attaches as permanently-unchoked pseudo-peers.
	WebSeeds []ip.Endpoint
}

// DefaultClientConfig mirrors BitTorrent 4.x defaults.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		Port:             6881,
		MaxPeers:         40,
		MaxInitiate:      30,
		UploadSlots:      4,
		RechokeInterval:  10 * time.Second,
		OptimisticRounds: 3,
		PipelineDepth:    5,
		RequestTimeout:   60 * time.Second,
		EndgameDup:       2,
		MinPeers:         20,
		ReannounceMin:    60 * time.Second,
		Tick:             5 * time.Second,
	}
}

// Progress is one point of a client's download trajectory.
type Progress struct {
	At     sim.Time
	Bytes  int64
	Pieces int
}

// ClientStats summarizes a client's transfer totals.
type ClientStats struct {
	Downloaded int64
	Uploaded   int64
	Peers      int
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
)

type event struct {
	kind  eventKind
	peer  *peer
	msg   Msg
	peers []ip.Endpoint
	ivl   time.Duration // tracker announce interval (evPeers)
}

// pieceProgress tracks block arrival for an in-progress piece. The
// bitmap is multi-word: a single uint64 silently broke pieces with more
// than 64 blocks (any piece over 1 MiB), where 1<<b overflowed to zero,
// the duplicate check never fired and the piece "completed" with blocks
// missing.
type pieceProgress struct {
	received []uint64 // block-arrival bitmap
	count    int
}

func newPieceProgress(blocks int) *pieceProgress {
	return &pieceProgress{received: make([]uint64, (blocks+63)/64)}
}

func (pp *pieceProgress) has(b int) bool {
	return pp.received[b>>6]&(1<<uint(b&63)) != 0
}

func (pp *pieceProgress) set(b int) {
	pp.received[b>>6] |= 1 << uint(b&63)
}

// Client is one BitTorrent node: leecher or seeder depending on its
// storage. All protocol logic runs in a single simulated goroutine fed
// by an event queue; peer connections push into the queue via conn
// sinks, so a client costs O(1) goroutines regardless of peer count.
type Client struct {
	h       *vnet.Host
	meta    *MetaInfo
	store   Storage
	cfg     ClientConfig
	tracker ip.Endpoint

	events *sim.Chan[event]
	// freeBox is the message-box pool for sends (see msgBox).
	freeBox *msgBox
	peers   []*peer
	byAddr  map[ip.Addr]*peer
	picker  *Picker

	partials     map[int]*pieceProgress
	partialOrder []int          // keys of partials, ascending (block selection order)
	outstanding  map[uint64]int // global request refcounts by blockKey.pack() (endgame > 1)

	// Reusable scratch for per-event work, so the hot paths allocate
	// nothing in steady state.
	rankScratch []rankedPeer
	topScratch  []int
	candScratch []rankedPeer
	keyScratch  []uint64

	started      sim.Time
	finished     sim.Time
	done         bool
	progress     []Progress
	uploaded     int64
	downloaded   int64
	lastAnnounce sim.Time
	rechokeRound int
	dialing      int

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

	om      btMetrics // obs instruments; all-nil when the network is uninstrumented
	sawPeer bool      // first peer admitted (time-to-first-peer observed)

	// OnComplete, if set, fires once when the download finishes.
	OnComplete func(c *Client, at sim.Time)
}

// NewClient creates a client on host h for the given torrent and
// storage, announcing to tracker. Call Start to run it.
//
//p2p:tokenentry constructed either during pre-Run setup (host goroutine is the only accessor) or from a simulated goroutine (resume path); single-threaded either way
func NewClient(h *vnet.Host, meta *MetaInfo, store Storage, tracker ip.Endpoint, cfg ClientConfig) *Client {
	k := h.Network().Kernel()
	c := &Client{
		h:           h,
		meta:        meta,
		store:       store,
		cfg:         cfg,
		tracker:     tracker,
		events:      sim.NewChan[event](k, 0),
		byAddr:      make(map[ip.Addr]*peer),
		picker:      NewPicker(meta.NumPieces(), k.Rand()),
		partials:    make(map[int]*pieceProgress),
		outstanding: make(map[uint64]int),
		om:          newBTMetrics(h.Network().Obs()),
	}
	if store.Bitfield().Complete() {
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
	burst := cfg.RateBurst
	if burst <= 0 {
		burst = 2 * int64(meta.PieceLength)
	}
	c.upLim = NewTokenBucket(cfg.UploadRate, burst)
	c.downLim = NewTokenBucket(cfg.DownloadRate, burst)
	return c
}

// Host returns the client's virtual node.
func (c *Client) Host() *vnet.Host { return c.h }

// Done reports whether the download has completed.
func (c *Client) Done() bool { return c.done }

// FinishedAt returns the completion instant (zero until done; seeders
// report zero).
func (c *Client) FinishedAt() sim.Time { return c.finished }

// Progress returns the piece-completion trajectory.
func (c *Client) Progress() []Progress { return c.progress }

// Stats returns transfer totals.
func (c *Client) Stats() ClientStats {
	return ClientStats{Downloaded: c.downloaded, Uploaded: c.uploaded, Peers: len(c.peers)}
}

// BytesDone returns verified bytes.
func (c *Client) BytesDone() int64 {
	var n int64
	bf := c.store.Bitfield()
	for i := 0; i < bf.Len(); i++ {
		if bf.Has(i) {
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
		l, err := c.h.Listen(p, c.cfg.Port)
		if err != nil {
			return
		}
		c.listener = l
		p.Go(name+"/accept", func(p *sim.Proc) { c.acceptLoop(p, l) })
		p.Go(name+"/tick", func(p *sim.Proc) {
			for !c.stopped {
				p.Sleep(c.cfg.Tick)
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
		pr := newPeer(conn, conn.RemoteAddr().Addr, c.meta.NumPieces(), true)
		pr.webseed = true
		pr.peerChoking = false
		pr.bits = Full(c.meta.NumPieces())
		pr.cl = c
		conn.SetSink(func(pk vnet.Packet, closed bool) {
			if closed {
				c.events.TrySend(event{kind: evPeerClosed, peer: pr})
				return
			}
			if b, ok := pk.Meta.(*msgBox); ok {
				m := b.m
				b.release()
				c.events.TrySend(event{kind: evMsg, peer: pr, msg: m})
			} else if m, ok := pk.Meta.(Msg); ok {
				c.events.TrySend(event{kind: evMsg, peer: pr, msg: m})
			}
		})
		c.events.TrySend(event{kind: evPeerJoined, peer: pr})
	})
}

// Stop takes the client offline abruptly (a churn departure): it closes
// the listener and every peer connection, tells the tracker, and ends
// the event loop. The storage keeps its verified pieces, so a later
// client on the same host can resume from them.
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
		peers, ivl, err := AnnounceRequest(p, c.h, c.tracker, c.meta.InfoHash(),
			c.cfg.Port, evt, c.left(), DefaultNumWant)
		if err != nil {
			return
		}
		c.events.TrySend(event{kind: evPeers, peers: peers, ivl: ivl})
	})
}

// acceptLoop admits inbound connections: exchange handshakes in a
// transient goroutine, then hand the peer to the main loop.
func (c *Client) acceptLoop(p *sim.Proc, l *vnet.Listener) {
	for {
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		cn := conn
		p.Go("bt-handshake-in", func(p *sim.Proc) {
			hs, ok := recvHandshake(p, cn, 30*time.Second)
			if !ok || hs.InfoHash != c.meta.InfoHash() {
				cn.Close(p)
				return
			}
			if err := sendHandshake(p, cn, c.handshake()); err != nil {
				cn.Close(p)
				return
			}
			c.admit(cn, false)
		})
	}
}

func (c *Client) handshake() Handshake {
	var id [20]byte
	copy(id[:], fmt.Sprintf("%-20s", "go-"+c.h.Addr().String()))
	return Handshake{InfoHash: c.meta.InfoHash(), PeerID: id}
}

// dialPeer initiates an outbound connection in a transient goroutine.
func (c *Client) dialPeer(p *sim.Proc, ep ip.Endpoint) {
	c.dialing++
	c.om.dialAttempts.Inc()
	p.Go("bt-handshake-out", func(p *sim.Proc) {
		defer c.events.TrySend(event{kind: evMsg, msg: Msg{}, peer: nil}) // nudge loop (dialing--)
		conn, err := c.h.Dial(p, ep)
		if err != nil {
			c.om.dialFailures.Inc()
			return
		}
		if err := sendHandshake(p, conn, c.handshake()); err != nil {
			conn.Close(p)
			return
		}
		hs, ok := recvHandshake(p, conn, 30*time.Second)
		if !ok || hs.InfoHash != c.meta.InfoHash() {
			conn.Close(p)
			return
		}
		c.admit(conn, true)
	})
}

// admit registers an established, handshaken connection with the main
// loop. Runs in transient goroutines.
//
//p2p:token
func (c *Client) admit(conn *vnet.Conn, initiated bool) {
	pr := newPeer(conn, conn.RemoteAddr().Addr, c.meta.NumPieces(), initiated)
	pr.cl = c
	conn.SetSink(func(pk vnet.Packet, closed bool) {
		if closed {
			c.events.TrySend(event{kind: evPeerClosed, peer: pr})
			return
		}
		if b, ok := pk.Meta.(*msgBox); ok {
			m := b.m
			b.release()
			c.events.TrySend(event{kind: evMsg, peer: pr, msg: m})
		} else if m, ok := pk.Meta.(Msg); ok {
			c.events.TrySend(event{kind: evMsg, peer: pr, msg: m})
		}
	})
	c.events.TrySend(event{kind: evPeerJoined, peer: pr})
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
		case evMsg:
			if ev.peer == nil {
				c.dialing-- // dial attempt resolved (possibly failed)
				continue
			}
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
	// nudge decrements c.dialing exactly once per attempt, successful or
	// not; decrementing again for initiated peers made every successful
	// dial count twice, drifting c.dialing negative and letting onPeers
	// dial past MaxInitiate.
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
		pr.useful = usefulCount(pr.bits, c.store.Bitfield())
		pr.amInterested = !c.done && pr.useful > 0
		c.fillRequests(p, pr)
		return
	}
	if c.byAddr[pr.addr] != nil || pr.addr == c.h.Addr() {
		pr.conn.Close(p)
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
			pr.conn.Close(p)
			return
		}
		c.onClose(p, victim)
	}
	c.registerPeer(pr)
	if !c.sawPeer {
		c.sawPeer = true
		c.om.ttfp.Observe(p.Now().Sub(c.started).Seconds())
	}
	if c.store.Bitfield().Count() > 0 {
		bf := c.store.Bitfield()
		pr.send(p, Msg{ID: MsgBitfield, Bits: bf.Bytes()})
	}
}

// registerPeer appends a peer to the ordered peer list and the address
// index, recording its slice position for O(1) departure.
func (c *Client) registerPeer(pr *peer) {
	pr.idx = len(c.peers)
	pr.cl = c
	c.peers = append(c.peers, pr)
	c.byAddr[pr.addr] = pr
}

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
		c.releaseRequest(e.bk)
	}
}

// releaseRequest drops one outstanding refcount for a block (keyed by
// blockKey.pack()).
func (c *Client) releaseRequest(bk uint64) {
	if n := c.outstanding[bk]; n > 1 {
		c.outstanding[bk] = n - 1
	} else {
		delete(c.outstanding, bk)
	}
}

func (c *Client) onMsg(p *sim.Proc, pr *peer, m Msg) {
	switch m.ID {
	case MsgBitfield:
		c.picker.RemoveBitfield(pr.bits)
		pr.bits = BitfieldFromBytes(m.Bits, c.meta.NumPieces())
		c.picker.AddBitfield(pr.bits)
		pr.useful = usefulCount(pr.bits, c.store.Bitfield())
		c.updateInterest(p, pr)
	case MsgHave:
		if !pr.bits.Has(m.Index) {
			pr.bits.Set(m.Index)
			c.picker.AddHave(m.Index)
			if !c.store.Bitfield().Has(m.Index) {
				pr.useful++
			}
		}
		c.updateInterest(p, pr)
	case MsgChoke:
		pr.peerChoking = true
		for _, e := range pr.inflight {
			c.releaseRequest(e.bk)
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
		pr.send(p, Msg{ID: id})
	}
}

// onRequest serves an upload request if the peer is unchoked.
func (c *Client) onRequest(p *sim.Proc, pr *peer, m Msg) {
	if pr.amChoking {
		return // stale request racing our choke
	}
	if m.Length <= 0 || m.Length > 128*1024 {
		return
	}
	data, ok := c.store.ReadBlock(m.Index, m.Begin, m.Length)
	if !ok && !c.store.HavePiece(m.Index) {
		return
	}
	out := Msg{ID: MsgPiece, Index: m.Index, Begin: m.Begin, Length: m.Length, Block: data}
	if data == nil {
		if ss, isSparse := c.store.(*SparseStorage); isSparse {
			out.Tag = ss.Tag(m.Index)
		}
	}
	n := int64(out.BlockLen())
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
			c.armUpPump(wait)
			return
		}
	}
	if pr.send(p, out) == nil {
		c.uploaded += n
		pr.upRate.Add(p.Now(), n)
	}
}

// pendingUpload is one rate-limited piece message awaiting tokens.
type pendingUpload struct {
	pr *peer
	m  Msg
	n  int64
}

// armUpPump schedules an evUpPump wake-up after the given virtual
// delay (at most one timer outstanding).
func (c *Client) armUpPump(wait time.Duration) {
	if c.upPumpArmed {
		return
	}
	c.upPumpArmed = true
	c.h.Network().Kernel().After(wait, func() {
		c.events.TrySend(event{kind: evUpPump})
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
			c.armUpPump(wait)
			break
		}
		if e.pr.send(p, e.m) == nil {
			c.uploaded += e.n
			e.pr.upRate.Add(now, e.n)
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

// armFillWake schedules an evFillWake wake-up after the given virtual
// delay (at most one timer outstanding).
func (c *Client) armFillWake(wait time.Duration) {
	if c.fillWakeArmed {
		return
	}
	c.fillWakeArmed = true
	c.h.Network().Kernel().After(wait, func() {
		c.events.TrySend(event{kind: evFillWake})
	})
}

// onBlock ingests a downloaded block.
func (c *Client) onBlock(p *sim.Proc, pr *peer, m Msg) {
	bk := blockKey{m.Index, m.Begin}.pack()
	if pr.inflightDel(bk) {
		c.releaseRequest(bk)
	}
	n := int64(m.BlockLen())
	c.downloaded += n
	pr.downRate.Add(p.Now(), n)

	if c.store.HavePiece(m.Index) || c.done {
		c.fillRequests(p, pr)
		return
	}
	pp := c.partials[m.Index]
	if pp == nil {
		pp = newPieceProgress(c.meta.BlocksIn(m.Index))
		c.partials[m.Index] = pp
		c.partialsInsert(m.Index)
		c.picker.MarkPartial(m.Index)
	}
	b := m.Begin / BlockLength
	if pp.has(b) {
		c.fillRequests(p, pr) // endgame duplicate
		return
	}
	if m.Block != nil {
		if err := c.store.WriteBlock(m.Index, m.Begin, m.Block, 0); err != nil {
			return
		}
	} else {
		if err := c.store.WriteBlock(m.Index, m.Begin, nil, m.Length); err != nil {
			return
		}
	}
	pp.set(b)
	pp.count++
	if pp.count == c.meta.BlocksIn(m.Index) {
		okPiece, err := c.store.CompletePiece(m.Index)
		delete(c.partials, m.Index)
		c.partialsRemove(m.Index)
		c.picker.ClearPartial(m.Index)
		if err == nil && okPiece {
			c.onPieceDone(p, m.Index)
		} else {
			// Hash failure: forget the piece and re-download. Refcounts
			// for blocks of this piece must survive for requests still in
			// flight at other peers (endgame duplicates), so rebuild each
			// block's count from the surviving inflight entries instead
			// of deleting wholesale — a wholesale delete zeroed counts
			// other peers still held, and later freeBlock calls then
			// re-requested the block past the EndgameDup bound.
			for b := 0; b < c.meta.BlocksIn(m.Index); b++ {
				rk := blockKey{m.Index, b * BlockLength}.pack()
				live := 0
				for _, other := range c.peers {
					if other.inflightHas(rk) {
						live++
					}
				}
				if live == 0 {
					delete(c.outstanding, rk)
				} else {
					c.outstanding[rk] = live
				}
			}
		}
	}
	c.fillRequests(p, pr)
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
	c.progress = append(c.progress, Progress{At: now, Bytes: c.BytesDone(), Pieces: c.store.Bitfield().Count()})
	c.picker.MarkHave(piece)
	for _, pr := range c.peers {
		if pr.bits.Has(piece) {
			pr.useful--
		}
		if !pr.webseed {
			pr.send(p, Msg{ID: MsgHave, Index: piece})
		}
		// Cancel endgame duplicates for this piece, in block order: the
		// cancels are wire messages, so their send order must not
		// depend on map iteration order. Packed keys of one piece sort
		// by begin offset.
		dups := c.keyScratch[:0]
		for _, e := range pr.inflight {
			if unpackBlockKey(e.bk).piece == piece {
				dups = append(dups, e.bk)
			}
		}
		slices.Sort(dups)
		c.keyScratch = dups[:0]
		for _, bk := range dups {
			begin := unpackBlockKey(bk).begin
			pr.send(p, Msg{ID: MsgCancel, Index: piece, Begin: begin, Length: c.meta.BlockSize(piece, begin/BlockLength)})
			pr.inflightDel(bk)
			c.releaseRequest(bk)
		}
	}
	if c.store.Bitfield().Complete() && !c.done {
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
			if now.Sub(e.at) > c.cfg.RequestTimeout {
				last := len(pr.inflight) - 1
				pr.inflight[i] = pr.inflight[last]
				pr.inflight = pr.inflight[:last]
				c.releaseRequest(e.bk)
				continue // the swapped-in entry now sits at i
			}
			i++
		}
		if !pr.peerChoking && pr.amInterested {
			c.fillRequests(p, pr)
		}
	}
	// Rechoke on its own period (tick granularity).
	if now.Sub(c.started) >= time.Duration(c.rechokeRound+1)*c.cfg.RechokeInterval {
		c.rechokeRound++
		c.rechoke(p)
	}
	// Re-announce when starved for peers.
	if !c.done && len(c.peers)-c.wsConns < c.cfg.MinPeers &&
		now.Sub(c.lastAnnounce) >= c.cfg.ReannounceMin {
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

// rechoke implements tit-for-tat: unchoke the UploadSlots-1 best
// interested peers (by their upload rate to us while leeching, by our
// upload rate to them while seeding) plus one optimistic unchoke
// rotated every OptimisticRounds rounds.
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
	round := c.rechokeRound
	// Snapshot interested peers and their rates, in peer-list order.
	ranked := c.rankScratch[:0]
	for ord, pr := range c.peers {
		if !pr.peerInterested {
			continue
		}
		r := pr.downRate.Rate(now)
		if c.done {
			r = pr.upRate.Rate(now)
		}
		ranked = append(ranked, rankedPeer{pr: pr, rate: r, ord: ord})
	}
	c.rankScratch = ranked[:0]
	// Top-K regular unchokes by bounded insertion (K = UploadSlots-1,
	// a handful), marked with this round's stamp.
	regular := c.cfg.UploadSlots - 1
	top := c.topScratch[:0]
	if regular > 0 {
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
	}
	c.topScratch = top[:0]
	for _, i := range top {
		ranked[i].pr.unchokeStamp = round
	}
	// Optimistic slot: rotate every OptimisticRounds rounds.
	rotate := round%c.cfg.OptimisticRounds == 1 || c.cfg.OptimisticRounds <= 1
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
			pr.send(p, Msg{ID: MsgUnchoke})
		} else if !want && !pr.amChoking {
			pr.amChoking = true
			c.om.chokes.Inc()
			pr.send(p, Msg{ID: MsgChoke})
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
		piece, begin, length := c.nextBlock(pr)
		if piece < 0 {
			return
		}
		if c.downLim != nil {
			// Gate request issue on the download bucket: the cap is on
			// requested bytes per virtual second, which converges to
			// received bytes per second once the pipeline drains. The
			// picked block is not yet marked outstanding, so it is
			// re-offered (same piece, same block) when the bucket wakes
			// us — selection stays deterministic.
			if wait := c.downLim.Take(now, int64(length)); wait > 0 {
				c.armFillWake(wait)
				return
			}
		}
		bk := blockKey{piece, begin}.pack()
		pr.inflightAdd(bk, now)
		c.outstanding[bk]++
		if pr.send(p, Msg{ID: MsgRequest, Index: piece, Begin: begin, Length: length}) != nil {
			return
		}
	}
}

// nextBlock selects the next block to request from a peer: first an
// unrequested block of a partial piece, then a fresh piece from the
// picker, then endgame duplication. Partial pieces are visited in
// ascending index order via the maintained c.partialOrder list — block
// selection is trace-visible and must be deterministic for a fixed
// seed, and re-sorting the partial map's keys per request was the
// request path's main allocation.
func (c *Client) nextBlock(pr *peer) (piece, begin, length int) {
	have := c.store.Bitfield()
	// 1. Unrequested blocks of partial pieces the peer has.
	for _, pi := range c.partialOrder {
		if !pr.bits.Has(pi) {
			continue
		}
		if b := c.freeBlock(pi, c.partials[pi], pr, 0); b >= 0 {
			return pi, b * BlockLength, c.meta.BlockSize(pi, b)
		}
	}
	// 2. A fresh piece.
	inFlight := func(i int) bool {
		// A piece is saturated when every block is requested.
		if c.partials[i] != nil {
			return c.freeBlockAny(i, c.partials[i], 0) < 0
		}
		return c.pieceSaturated(i)
	}
	pi := c.picker.Pick(have, pr.bits, inFlight)
	if pi >= 0 && c.partials[pi] == nil {
		// Start the piece: request block 0 (further blocks follow as
		// the pipeline refills).
		if c.outstanding[blockKey{pi, 0}.pack()] == 0 {
			c.picker.MarkPartial(pi)
			c.partials[pi] = newPieceProgress(c.meta.BlocksIn(pi))
			c.partialsInsert(pi)
			return pi, 0, c.meta.BlockSize(pi, 0)
		}
	} else if pi >= 0 {
		if b := c.freeBlock(pi, c.partials[pi], pr, 0); b >= 0 {
			return pi, b * BlockLength, c.meta.BlockSize(pi, b)
		}
	}
	// 3. Endgame: duplicate outstanding blocks up to EndgameDup.
	for _, pi := range c.partialOrder {
		if !pr.bits.Has(pi) {
			continue
		}
		if b := c.freeBlock(pi, c.partials[pi], pr, c.cfg.EndgameDup-1); b >= 0 {
			return pi, b * BlockLength, c.meta.BlockSize(pi, b)
		}
	}
	return -1, 0, 0
}

// freeBlock finds a block of piece pi not yet received, not in flight
// at this peer, and with a global outstanding count ≤ maxDup.
func (c *Client) freeBlock(pi int, pp *pieceProgress, pr *peer, maxDup int) int {
	n := c.meta.BlocksIn(pi)
	for b := 0; b < n; b++ {
		if pp.has(b) {
			continue
		}
		bk := blockKey{pi, b * BlockLength}.pack()
		if pr.inflightHas(bk) {
			continue
		}
		if c.outstanding[bk] > maxDup {
			continue
		}
		return b
	}
	return -1
}

// freeBlockAny is freeBlock without the per-peer exclusion.
func (c *Client) freeBlockAny(pi int, pp *pieceProgress, maxDup int) int {
	n := c.meta.BlocksIn(pi)
	for b := 0; b < n; b++ {
		if pp.has(b) {
			continue
		}
		if c.outstanding[blockKey{pi, b * BlockLength}.pack()] > maxDup {
			continue
		}
		return b
	}
	return -1
}

// pieceSaturated reports whether a not-yet-started piece's first block
// is already outstanding (conservative saturation check).
func (c *Client) pieceSaturated(i int) bool {
	return c.outstanding[blockKey{i, 0}.pack()] > 0
}
