package bt

import (
	"repro/internal/ip"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vnet"
)

// WebSeedPort is the well-known port web-seed hosts listen on.
const WebSeedPort ip.Port = 8080

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
	meta  *MetaInfo
	bytes *obs.Counter      // block bytes served, shared by a network's web seeds
	boxes vnet.BoxPool[Msg] // its replies' boxes (see peer.send)
}

// NewWebSeed creates a web seed on host serving every piece of the
// torrent and starts its accept loop.
func NewWebSeed(host *vnet.Host, meta *MetaInfo) *WebSeed {
	w := &WebSeed{host: host, meta: meta, bytes: WebSeedBytes(host.Network().Obs())}
	host.Network().Kernel().Go("webseed-"+host.Addr().String(), w.serve)
	return w
}

// WebSeedBytes is the registry family every web seed of a network
// counts its served block bytes into.
func WebSeedBytes(reg *obs.Registry) *obs.Counter {
	return reg.Counter("p2plab_webseed_bytes_served_total", "webseed-bytes", "Bytes the web seeds served.")
}

func (w *WebSeed) serve(p *sim.Proc) {
	l, err := w.host.Listen(p, WebSeedPort)
	if err != nil {
		return
	}
	l.Serve(p, "webseed-conn", w.handle)
}

// handle serves one client connection: a loop of block requests, each
// answered immediately (an HTTP range GET per block). Anything that
// is not a well-formed request for a piece in range — cancels, stray
// peer-protocol messages — is ignored, like a web server ignoring
// unknown headers.
func (w *WebSeed) handle(p *sim.Proc, cn *vnet.Conn) {
	defer cn.Close(p)
	for {
		meta, err := cn.Recv(p)
		if err != nil {
			return
		}
		b, ok := meta.(*vnet.Box[Msg])
		if !ok {
			continue
		}
		m := b.Take()
		if m.ID != MsgRequest || m.Length <= 0 || m.Length > 128*1024 ||
			m.Index < 0 || m.Index >= w.meta.NumPieces() {
			continue
		}
		out := Msg{ID: MsgPiece, Index: m.Index, Begin: m.Begin, Length: m.Length}
		if err := cn.SendMeta(p, out.WireSize(), w.boxes.Get(out)); err != nil {
			return
		}
		w.bytes.Add(uint64(m.Length))
	}
}
