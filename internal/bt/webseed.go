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
	bytes *obs.Counter // block bytes served, shared by a network's web seeds
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
	l.Serve(p, "webseed-conn", func(p *sim.Proc, c *vnet.Conn) {
		for c.Answer(p, 0, w.answer) {
		}
		c.Close(p)
	})
}

// answer serves one block request (an HTTP range GET per block) with
// the torrent's interned piece message, counting the block's bytes as
// served. Anything that is not a request for a block of the torrent
// (MetaInfo.blockOf) — cancels, stray peer-protocol messages — gets no
// reply, like a web server ignoring unknown headers.
func (w *WebSeed) answer(_ *sim.Proc, _ ip.Endpoint, req any) (int, any) {
	m, ok := req.(*Msg)
	if !ok || m.ID != MsgRequest {
		return 0, nil
	}
	b, ok := w.meta.blockOf(m.Index, m.Begin, m.Length)
	if !ok {
		return 0, nil
	}
	w.bytes.Add(uint64(m.Length))
	out := w.meta.block(MsgPiece, m.Index, b)
	return out.WireSize(), out
}
