package bt

import (
	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/vnet"
)

// WebSeedPort is the well-known port web-seed hosts listen on.
const WebSeedPort ip.Port = 8080

// WebSeedStats counts a web seed's serving activity.
type WebSeedStats struct {
	BytesServed uint64
}

// WebSeed is an always-available block server: the emulation analogue
// of an HTTP range server in a BEP 19 deployment (Erigon's snapshot
// webseeds are the production model). It speaks the same block
// request/response shapes as a peer but none of the peer protocol —
// no handshake, no choking, no bitfields, no interest. Clients attach
// it as a permanently-unchoked pseudo-peer (ClientConfig.WebSeeds)
// and fall back to it whenever swarm capacity leaves pipeline room,
// which is exactly the CDN-fallback role the real thing plays.
type WebSeed struct {
	host  *vnet.Host
	store Storage
	stats WebSeedStats
}

// NewWebSeed creates a web seed on host serving the torrent from
// store (normally a seeded storage) and starts its accept loop.
func NewWebSeed(host *vnet.Host, meta *MetaInfo, store Storage) *WebSeed {
	w := &WebSeed{host: host, store: store}
	host.Network().Kernel().Go("webseed-"+host.Addr().String(), w.serve)
	return w
}

// Stats returns a snapshot of serving counters.
func (w *WebSeed) Stats() WebSeedStats { return w.stats }

func (w *WebSeed) serve(p *sim.Proc) {
	l, err := w.host.Listen(p, WebSeedPort)
	if err != nil {
		return
	}
	for {
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		cn := conn
		p.Go("webseed-conn", func(p *sim.Proc) { w.handle(p, cn) })
	}
}

// handle serves one client connection: a loop of block requests, each
// answered immediately (an HTTP range GET per block). Anything that
// is not a well-formed request — cancels, stray peer-protocol
// messages — is ignored, like a web server ignoring unknown headers.
func (w *WebSeed) handle(p *sim.Proc, cn *vnet.Conn) {
	defer cn.Close(p)
	for {
		pk, err := cn.Recv(p)
		if err != nil {
			return
		}
		var m Msg
		switch v := pk.Meta.(type) {
		case *msgBox:
			m = v.m
			v.release()
		case Msg:
			m = v
		default:
			continue
		}
		if m.ID != MsgRequest || m.Length <= 0 || m.Length > 128*1024 {
			continue
		}
		data, ok := w.store.ReadBlock(m.Index, m.Begin, m.Length)
		if !ok && !w.store.HavePiece(m.Index) {
			continue
		}
		out := Msg{ID: MsgPiece, Index: m.Index, Begin: m.Begin, Length: m.Length, Block: data}
		if err := cn.SendMeta(p, out.WireSize(), out); err != nil {
			return
		}
		w.stats.BytesServed += uint64(out.BlockLen())
	}
}
