package bt

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ip"
	"repro/internal/sim"
)

// reqDict is the dict a real client bencodes for r.
func reqDict(r *announceReq) map[string]any {
	return map[string]any{
		"event":     r.event,
		"info_hash": r.infoHash[:],
		"left":      r.left,
		"numwant":   r.numWant,
		"peer_id":   strings.Repeat("x", 20),
		"port":      r.port,
	}
}

// respDict is the dict a real tracker bencodes for r.
func respDict(r *announceResp) map[string]any {
	if r.failure != "" {
		return map[string]any{"failure reason": r.failure}
	}
	var peers []any
	for _, ep := range r.peers {
		peers = append(peers, map[string]any{"ip": ep.Addr.String(), "port": int64(ep.Port)})
	}
	return map[string]any{"interval": r.interval, "peers": peers}
}

// checkSizes fails t unless each value's size() is the length of its
// bencoded dict.
func checkSizes(t *testing.T, req *announceReq, resps ...*announceResp) {
	t.Helper()
	enc, err := Bencode(reqDict(req))
	if err != nil {
		t.Fatal(err)
	}
	if req.size() != len(enc) {
		t.Fatalf("request %+v: size() = %d, bencoded %d bytes %q", *req, req.size(), len(enc), enc)
	}
	for _, resp := range resps {
		enc, err := Bencode(respDict(resp))
		if err != nil {
			t.Fatal(err)
		}
		if resp.size() != len(enc) {
			t.Fatalf("response %+v: size() = %d, bencoded %d bytes %q", *resp, resp.size(), len(enc), enc)
		}
	}
}

// drawInt mixes the magnitudes an announce field can carry: negative,
// zero, small, 10^9-scale and the int64 extremes.
func drawInt(rng *rand.Rand) int64 {
	switch rng.Intn(6) {
	case 0:
		return -rng.Int63n(2_000_000_000)
	case 1:
		return 0
	case 2:
		return rng.Int63n(70000)
	case 3:
		return 1_000_000_000 + rng.Int63n(1_000_000_000)
	case 4:
		return rng.Int63()
	default:
		return []int64{math.MinInt64, math.MaxInt64, -1, 9, 10, 65535, 65536}[rng.Intn(7)]
	}
}

// drawAddr returns an address whose octets are drawn across the 1-, 2-
// and 3-digit widths.
func drawAddr(rng *rand.Rand) ip.Addr {
	var a ip.Addr
	for i := 0; i < 4; i++ {
		var o int
		switch rng.Intn(3) {
		case 0:
			o = rng.Intn(10)
		case 1:
			o = 10 + rng.Intn(90)
		default:
			o = 100 + rng.Intn(156)
		}
		a = a<<8 | ip.Addr(o)
	}
	return a
}

// TestAnnounceSizeMatchesBencode pins the charged length of every
// tracker message to its bencoded form. A wrong size() moves
// vnet.bytes_delivered and every golden digest.
func TestAnnounceSizeMatchesBencode(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	events := []string{EventStarted, EventCompleted, EventStopped, EventEmpty, "x", "bogus\n"}
	for i := 0; i < 5000; i++ {
		req := &announceReq{port: drawInt(rng), left: drawInt(rng), numWant: drawInt(rng), event: events[rng.Intn(len(events))]}
		rng.Read(req.infoHash[:])
		resp := &announceResp{interval: drawInt(rng), peers: make([]ip.Endpoint, rng.Intn(MaxNumWant+1))}
		for j := range resp.peers {
			resp.peers[j] = ip.Endpoint{Addr: drawAddr(rng), Port: ip.Port(rng.Intn(65536))}
		}
		portFail := &announceResp{failure: fmt.Sprintf("invalid port %d", drawInt(rng))}
		eventFail := &announceResp{failure: fmt.Sprintf("unknown event %q", events[rng.Intn(len(events))])}
		checkSizes(t, req, resp, portFail, eventFail)
	}
}

// FuzzAnnounceSize is TestAnnounceSizeMatchesBencode over arbitrary
// fields. peers is read six bytes to an endpoint (address, then port),
// at most MaxNumWant of them; a non-empty failure is checked as its own
// reply.
func FuzzAnnounceSize(f *testing.F) {
	f.Add([]byte("0123456789abcdefghij"), int64(6881), int64(16777216), int64(50), EventStarted, int64(1800), []byte{10, 0, 0, 1, 0x1a, 0xe1}, "")
	f.Add([]byte{}, int64(0), int64(0), int64(0), EventEmpty, int64(0), []byte{}, "invalid port 0")
	f.Add([]byte{0xff}, int64(-1), int64(-1_000_000_000), int64(1_000_000_000), EventCompleted, int64(-5), []byte{255, 255, 255, 255, 255, 255, 1, 2, 3, 4, 0, 0}, "invalid port -1")
	f.Add([]byte{}, int64(65536), int64(math.MaxInt64), int64(math.MinInt64), EventStopped, int64(math.MaxInt64), []byte{100, 10, 1, 0, 0, 80}, `unknown event "x"`)
	f.Add([]byte{}, int64(70000), int64(1), int64(200), "x", int64(1), []byte{}, `unknown event "x"`)
	f.Fuzz(func(t *testing.T, ih []byte, port, left, numWant int64, event string, interval int64, peers []byte, failure string) {
		req := &announceReq{port: port, left: left, numWant: numWant, event: event}
		copy(req.infoHash[:], ih)
		resp := &announceResp{interval: interval}
		for ; len(peers) >= 6 && len(resp.peers) < MaxNumWant; peers = peers[6:] {
			a := ip.Addr(peers[0])<<24 | ip.Addr(peers[1])<<16 | ip.Addr(peers[2])<<8 | ip.Addr(peers[3])
			resp.peers = append(resp.peers, ip.Endpoint{Addr: a, Port: ip.Port(peers[4])<<8 | ip.Port(peers[5])})
		}
		resps := []*announceResp{resp}
		if failure != "" {
			resps = append(resps, &announceResp{failure: failure})
		}
		checkSizes(t, req, resps...)
	})
}

// TestAnnounceRequestReportsTrackerFailure sends two rejected announces
// through a real tracker connection: each comes back as a tracker
// failure carrying the reason, and neither registers the peer.
func TestAnnounceRequestReportsTrackerFailure(t *testing.T) {
	k, _, trk, hosts := swarmEnv(t, 1, 1, fastClass)
	tracker := NewTracker(trk)
	m, _ := SyntheticTorrent("t", 512*1024, 0)
	trkEP := ip.Endpoint{Addr: trk.Addr(), Port: TrackerPort}
	cases := []struct {
		port  ip.Port
		event string
		want  string
	}{
		{0, EventStarted, "bt: tracker failure: invalid port 0"},
		{6881, "bogus", `bt: tracker failure: unknown event "bogus"`},
	}
	var errs []error
	k.Go("announcer", func(p *sim.Proc) {
		for _, c := range cases {
			peers, ivl, err := AnnounceRequest(p, hosts[0], trkEP, &announceReq{infoHash: m.InfoHash(), port: int64(c.port), event: c.event, left: m.Length, numWant: 50})
			if peers != nil || ivl != 0 {
				t.Errorf("%s: got peers %v, interval %v alongside the failure", c.event, peers, ivl)
			}
			errs = append(errs, err)
			if n := tracker.PeerCount(m.InfoHash()); n != 0 {
				t.Errorf("%s: PeerCount = %d after a rejected announce, want 0", c.event, n)
			}
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(errs) != len(cases) {
		t.Fatalf("%d announces finished, want %d", len(errs), len(cases))
	}
	for i, c := range cases {
		if errs[i] == nil || errs[i].Error() != c.want {
			t.Errorf("announce %d: err = %v, want %q", i, errs[i], c.want)
		}
	}
}
