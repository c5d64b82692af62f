//go:build !race

package bt

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
)

// TestWireSendsDoNotAllocate holds every interned message kind to zero
// allocations per send in steady state, on an established connection
// whose reader takes each message before the next leaves: choke,
// unchoke, interested, not-interested, Have, request, cancel, a
// seeder's piece (through onRequest) and a web seed's piece (a request
// and its answer). A send passes the torrent's one value (see Msg).
// Integer division, as in vnet's TestTransmitAllocs: a stray runtime
// allocation cannot move the figure, one more per message does.
func TestWireSendsDoNotAllocate(t *testing.T) {
	const warmup, measured = 50, 500
	meta, err := SyntheticTorrent("t", 4*DefaultPieceLength, 0)
	if err != nil {
		t.Fatal(err)
	}
	k, _, _, hosts := swarmEnv(t, 1, 3, fastClass)
	seeder := NewClient(hosts[0], meta, Full(meta.NumPieces()), ip.Endpoint{}, DefaultClientConfig())
	ws := NewWebSeed(hosts[1], meta)
	req := meta.block(MsgRequest, 3, 5)
	sends := []struct {
		name string
		send func(p *sim.Proc, pr *peer)
	}{
		{"choke", func(p *sim.Proc, pr *peer) { pr.send(p, meta.flag(MsgChoke)) }},
		{"unchoke", func(p *sim.Proc, pr *peer) { pr.send(p, meta.flag(MsgUnchoke)) }},
		{"interested", func(p *sim.Proc, pr *peer) { pr.send(p, meta.flag(MsgInterested)) }},
		{"not-interested", func(p *sim.Proc, pr *peer) { pr.send(p, meta.flag(MsgNotInterested)) }},
		{"have", func(p *sim.Proc, pr *peer) { pr.send(p, meta.have(2)) }},
		{"request", func(p *sim.Proc, pr *peer) { pr.send(p, meta.block(MsgRequest, 1, 7)) }},
		{"cancel", func(p *sim.Proc, pr *peer) { pr.send(p, meta.block(MsgCancel, 1, 7)) }},
		{"piece", func(p *sim.Proc, pr *peer) { seeder.onRequest(p, pr, req) }},
	}
	got := make(map[string]uint64)
	k.Go("sends", func(p *sim.Proc) {
		defer k.Stop()
		l, err := hosts[2].Listen(p, peerPort)
		if err != nil {
			t.Error(err)
			return
		}
		conn, err := hosts[0].Dial(p, ip.Endpoint{Addr: hosts[2].Addr(), Port: peerPort})
		if err != nil {
			t.Error(err)
			return
		}
		in, err := l.Accept(p)
		if err != nil {
			t.Error(err)
			return
		}
		pr := seeder.attach(conn)
		pr.amChoking = false
		wc, err := hosts[2].Dial(p, ws.Endpoint())
		if err != nil {
			t.Error(err)
			return
		}
		// perMessage runs one of fn count times, each a send and its
		// receipt, and returns the mallocs per run.
		perMessage := func(fn func()) uint64 {
			for i := 0; i < warmup; i++ {
				fn()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < measured; i++ {
				fn()
			}
			runtime.ReadMemStats(&after)
			return (after.Mallocs - before.Mallocs) / measured
		}
		for _, s := range sends {
			got[s.name] = perMessage(func() {
				s.send(p, pr)
				if _, err := in.Recv(p); err != nil {
					t.Errorf("%s: %v", s.name, err)
				}
				p.Sleep(time.Second) // the upload rate's ticks move on
			})
		}
		got["web seed piece"] = perMessage(func() {
			if err := wc.SendMeta(p, req.WireSize(), req); err != nil {
				t.Errorf("web seed request: %v", err)
			}
			if m, err := wc.Recv(p); err != nil || m != meta.block(MsgPiece, 3, 5) {
				t.Errorf("web seed answered %v, %v", m, err)
			}
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"choke", "unchoke", "interested", "not-interested", "have", "request", "cancel", "piece", "web seed piece"} {
		if n, ok := got[name]; !ok {
			t.Errorf("%s: not measured", name)
		} else if n != 0 {
			t.Errorf("%s: %d allocations per message, want 0", name, n)
		}
	}
}
