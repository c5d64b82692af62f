package vnet_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/virt"
	"repro/internal/vnet"
)

// The transmit journey (vnet.Network.transmit and the pooled xfer) is
// one implementation under both link models. The tests here are its
// oracles: message conservation, policy parity across models, and the
// pipe model's inline hop walk against netem.PipeModel.Transfer.

var (
	policyA = ip.MustParseAddr("10.0.0.1")
	policyB = ip.MustParseAddr("10.0.0.2")
	nowhere = ip.MustParseAddr("10.9.9.9") // no host registered here
)

// checkConserved asserts the drained-network invariant: with nothing in
// flight every message handed to transmit was delivered or dropped.
func checkConserved(t *testing.T, st vnet.NetworkStats) {
	t.Helper()
	if st.MessagesSent != st.MessagesDelivered+st.MessagesDropped {
		t.Errorf("messages not conserved after drain: sent %d != delivered %d + dropped %d",
			st.MessagesSent, st.MessagesDelivered, st.MessagesDropped)
	}
}

// TestNetworkStatsConserveMessages drives transmit's two early returns —
// no host at the destination, and a fabric route denied by a physical
// node's firewall — and requires both to count the message as sent.
func TestNetworkStatsConserveMessages(t *testing.T) {
	t.Run("unknown-destination", func(t *testing.T) {
		k := sim.New(1)
		n := vnet.NewNetwork(k, nil, vnet.DefaultConfig())
		a, err := n.AddHost(policyA, netem.PipeConfig{}, netem.PipeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		k.Go("client", func(p *sim.Proc) {
			if _, err := a.Dial(p, ip.Endpoint{Addr: nowhere, Port: 80}); !errors.Is(err, vnet.ErrNetUnreachable) {
				t.Errorf("dial err = %v, want ErrNetUnreachable", err)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if got, want := n.Stats(), (vnet.NetworkStats{MessagesSent: 1, MessagesDropped: 1}); got != want {
			t.Errorf("stats = %+v, want %+v", got, want)
		}
	})
	t.Run("cluster-deny", func(t *testing.T) {
		k := sim.New(1)
		cl, err := virt.NewCluster(k, 1, virt.DefaultConfig(nil))
		if err != nil {
			t.Fatal(err)
		}
		n := vnet.NewNetwork(k, cl, vnet.DefaultConfig())
		a, _ := n.AddHost(policyA, netem.PipeConfig{}, netem.PipeConfig{})
		b, _ := n.AddHost(policyB, netem.PipeConfig{}, netem.PipeConfig{})
		if err := cl.PlaceSuccessive([]*vnet.Host{a, b}, 2); err != nil {
			t.Fatal(err)
		}
		cl.Node(0).Rules().AddDeny(ip.NewPrefix(policyA, 32), ip.NewPrefix(policyB, 32))
		k.Go("client", func(p *sim.Proc) {
			if _, err := a.Dial(p, ip.Endpoint{Addr: policyB, Port: 80}); !errors.Is(err, vnet.ErrNetUnreachable) {
				t.Errorf("dial err = %v, want ErrNetUnreachable", err)
			}
			// The reverse direction is open, so b's echo request crosses
			// the network and only a's reply meets the deny: delivered,
			// denied and refused messages must balance together.
			if _, ok := b.Ping(p, policyA, vnet.DefaultPingSize, time.Second); ok {
				t.Error("echo reply crossed the denied direction")
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		st := n.Stats()
		checkConserved(t, st)
		if st.MessagesDelivered != 1 || st.MessagesDropped != 2 {
			t.Errorf("stats = %+v, want the echo request delivered, the SYN and the echo reply dropped", st)
		}
	})
}

// policyModels are the link-model configurations the journey must treat
// alike.
var policyModels = []struct {
	name   string
	kind   netem.ModelKind
	window time.Duration
}{
	{"pipe", netem.ModelPipe, 0},
	{"flow", netem.ModelFlow, 0},
	{"flow-windowed", netem.ModelFlow, 50 * time.Millisecond},
}

// policyLinks are the access-link shapes of the two hosts. With no
// bandwidth limit anywhere a path completes after pure propagation in
// every model, so all three must agree to the byte. With one
// constrained pipe per path (the scripts keep one message in flight)
// the per-event flow model is still the pipe model's schedule exactly;
// the windowed one delays each flow to its batch boundary, so it is
// held to the same counters only.
var policyLinks = []struct {
	name     string
	up, down netem.PipeConfig
	exact    int // leading policyModels that must match to the byte
}{
	{"unconstrained", netem.PipeConfig{Delay: 5 * time.Millisecond}, netem.PipeConfig{Delay: 5 * time.Millisecond}, 3},
	{"up-constrained", netem.PipeConfig{Bandwidth: netem.Mbps, Delay: 5 * time.Millisecond}, netem.PipeConfig{Delay: 5 * time.Millisecond}, 2},
	{"down-constrained", netem.PipeConfig{Delay: 5 * time.Millisecond}, netem.PipeConfig{Bandwidth: netem.Mbps, Delay: 5 * time.Millisecond}, 2},
}

// policyEnv is one two-host network under test plus what its
// applications observed.
type policyEnv struct {
	t     *testing.T
	k     *sim.Kernel
	n     *vnet.Network
	rules *netem.RuleSet // nil unless the scenario asks for a firewall
	a, b  *vnet.Host
	log   *trace.Log
	notes []string // application-level observations, in order, without instants
}

func (e *policyEnv) notef(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// serve accepts one connection on b:80 and notes every message read
// until the stream ends or stays quiet for ten minutes.
func (e *policyEnv) serve() {
	e.k.Go("server", func(p *sim.Proc) {
		l, err := e.b.Listen(p, 80)
		if err != nil {
			e.t.Errorf("listen: %v", err)
			return
		}
		c, ok, err := l.AcceptTimeout(p, 10*time.Minute)
		if err != nil || !ok {
			e.t.Errorf("accept: ok=%v err=%v", ok, err)
			return
		}
		for {
			pk, ok, err := c.RecvTimeout(p, 10*time.Minute)
			if err != nil || !ok {
				e.notef("server: stream over (quiet=%v closed=%v)", !ok, errors.Is(err, vnet.ErrClosed))
				return
			}
			e.notef("server: got %d B", pk.Len())
		}
	})
}

// client dials b:80 on the still-healthy path and runs script from
// t = 1 s of virtual time. Scripts act at absolute instants
// (SleepUntil), so every model sees the same actions at the same times
// whatever its own delivery times.
func (e *policyEnv) client(script func(p *sim.Proc, c *vnet.Conn)) {
	e.k.Go("client", func(p *sim.Proc) {
		c, err := e.a.Dial(p, ip.Endpoint{Addr: policyB, Port: 80})
		if err != nil {
			e.t.Errorf("dial: %v", err)
			return
		}
		p.SleepUntil(sim.Time(time.Second))
		script(p, c)
	})
}

// send transmits one 1000-byte reliable message and notes the result.
func (e *policyEnv) send(p *sim.Proc, c *vnet.Conn) {
	e.notef("client: send err=%v", c.Send(p, make([]byte, 1000)))
}

// awaitReset blocks the sender in Recv until the give-up reset tears
// the connection down.
func (e *policyEnv) awaitReset(p *sim.Proc, c *vnet.Conn) {
	_, err := c.Recv(p)
	e.notef("client: recv closed=%v", errors.Is(err, vnet.ErrClosed))
}

// policyResult is everything one run exposes for comparison.
type policyResult struct {
	stats vnet.NetworkStats
	notes string
	trace string // rendered, net.flow records (the flow engine's own) filtered
	count func(cat string) uint64
}

func (r policyResult) has(note string) bool {
	return strings.Contains(r.notes, note+"\n")
}

type policyScenario struct {
	name     string
	firewall bool
	script   func(e *policyEnv)
	check    func(t *testing.T, r policyResult)
}

// runPolicy plays one scenario on a fresh network.
func runPolicy(t *testing.T, sc policyScenario, kind netem.ModelKind, window time.Duration, up, down netem.PipeConfig) policyResult {
	t.Helper()
	k := sim.New(1)
	cfg := vnet.DefaultConfig()
	cfg.Model, cfg.FlowWindow = kind, window
	e := &policyEnv{t: t, k: k, log: trace.New(0)}
	if sc.firewall {
		e.rules = netem.NewRuleSet()
		cfg.Rules = e.rules
	}
	e.n = vnet.NewNetwork(k, nil, cfg)
	e.n.SetTrace(e.log)
	var err error
	if e.a, err = e.n.AddHost(policyA, up, down); err != nil {
		t.Fatal(err)
	}
	if e.b, err = e.n.AddHost(policyB, up, down); err != nil {
		t.Fatal(err)
	}
	sc.script(e)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var tr strings.Builder
	for _, ev := range e.log.Events() {
		if ev.Cat != "net.flow" {
			fmt.Fprintf(&tr, "%v %s %s %s\n", ev.At, ev.Cat, ev.Node, ev.Msg)
		}
	}
	return policyResult{
		stats: e.n.Stats(),
		notes: strings.Join(e.notes, "\n") + "\n",
		trace: tr.String(),
		count: e.log.Count,
	}
}

// TestTransmitPolicyAcrossModels is the oracle for "one journey": the
// per-attempt policy — blocked path, firewall cost and deny, model drop,
// RTO backoff, give-up drop + reset, delivery — must come out the same
// whichever link model carries the bytes. Every failure case below runs
// under ModelFlow, which no test did while the flow model had its own
// copy of the policy.
func TestTransmitPolicyAcrossModels(t *testing.T) {
	maxRetx := uint64(vnet.DefaultConfig().MaxRetransmits)
	sideA, sideB := []ip.Addr{policyA}, []ip.Addr{policyB}
	gaveUp := func(t *testing.T, r policyResult, dropped uint64) {
		t.Helper()
		if r.stats.MessagesDropped != dropped || r.stats.Retransmits != maxRetx {
			t.Errorf("stats = %+v, want %d dropped after %d retransmits", r.stats, dropped, maxRetx)
		}
		if r.count("net.reset") != 1 || !r.has("client: recv closed=true") {
			t.Errorf("no give-up reset surfaced to the sender: %d net.reset, notes:\n%s", r.count("net.reset"), r.notes)
		}
		if !strings.Contains(r.trace, fmt.Sprintf("lost after %d attempt(s)", maxRetx+1)) {
			t.Errorf("trace has no exhaustion record:\n%s", r.trace)
		}
	}
	healed := func(t *testing.T, r policyResult, retx uint64, got int) {
		t.Helper()
		if r.stats.MessagesDropped != 0 || r.stats.Retransmits != retx || r.count("net.reset") != 0 {
			t.Errorf("stats = %+v with %d net.reset, want no drop, %d retransmits, no reset", r.stats, r.count("net.reset"), retx)
		}
		if n := strings.Count(r.notes, "server: got 1000 B\n"); n != got {
			t.Errorf("server read %d message(s), want %d:\n%s", n, got, r.notes)
		}
	}

	scenarios := []policyScenario{
		{
			// Attempts at +0 and +200 ms are blocked; the one at +600 ms
			// finds the partition healed.
			name: "partition-healed",
			script: func(e *policyEnv) {
				e.serve()
				e.client(func(p *sim.Proc, c *vnet.Conn) {
					id := e.n.Partition(sideA, sideB)
					e.k.After(500*time.Millisecond, func() { e.n.Heal(id) })
					e.send(p, c)
					p.SleepUntil(sim.Time(3 * time.Second))
					c.Close(p)
				})
			},
			check: func(t *testing.T, r policyResult) { healed(t, r, 2, 1) },
		},
		{
			// A datagram across the partition is dropped at once; the
			// reliable message runs out its retransmissions.
			name: "partition-permanent",
			script: func(e *policyEnv) {
				e.serve()
				e.client(func(p *sim.Proc, c *vnet.Conn) {
					e.n.Partition(sideA, sideB)
					pc, err := e.a.ListenPacket(p, 0)
					if err != nil {
						e.t.Errorf("listen-packet: %v", err)
						return
					}
					pc.SendTo(p, ip.Endpoint{Addr: policyB, Port: 9}, []byte("x"))
					pc.Close()
					p.SleepUntil(sim.Time(2 * time.Second))
					e.send(p, c)
					e.awaitReset(p, c)
				})
			},
			check: func(t *testing.T, r policyResult) {
				gaveUp(t, r, 2)
				if !strings.Contains(r.trace, "lost after 1 attempt(s)") {
					t.Errorf("datagram was not dropped on its first attempt:\n%s", r.trace)
				}
			},
		},
		{
			name:     "deny-lifted",
			firewall: true,
			script: func(e *policyEnv) {
				e.serve()
				e.client(func(p *sim.Proc, c *vnet.Conn) {
					h := e.rules.AddDeny(ip.NewPrefix(policyA, 32), ip.NewPrefix(policyB, 32))
					e.k.After(500*time.Millisecond, func() { e.rules.RemoveHandle(h) })
					e.send(p, c)
					p.SleepUntil(sim.Time(3 * time.Second))
					c.Close(p)
				})
			},
			check: func(t *testing.T, r policyResult) {
				healed(t, r, 2, 1)
				if r.stats.RuleDenied != 2 || r.count("net.deny") != 2 {
					t.Errorf("RuleDenied = %d with %d net.deny, want 2 and 2", r.stats.RuleDenied, r.count("net.deny"))
				}
			},
		},
		{
			name:     "deny-permanent",
			firewall: true,
			script: func(e *policyEnv) {
				e.serve()
				e.client(func(p *sim.Proc, c *vnet.Conn) {
					e.rules.AddDeny(ip.NewPrefix(policyA, 32), ip.NewPrefix(policyB, 32))
					e.send(p, c)
					e.awaitReset(p, c)
				})
			},
			check: func(t *testing.T, r policyResult) {
				gaveUp(t, r, 1)
				if r.stats.RuleDenied != maxRetx+1 {
					t.Errorf("RuleDenied = %d, want MaxRetransmits+1 = %d", r.stats.RuleDenied, maxRetx+1)
				}
			},
		},
		{
			// Fig 6's mechanism: each traversal pays Visited × PerRuleCost
			// ahead of serialization, so 1000 filler rules add exactly
			// two scans to a round trip.
			name:     "rule-cost",
			firewall: true,
			script: func(e *policyEnv) {
				e.k.Go("pinger", func(p *sim.Proc) {
					base, ok1 := e.a.Ping(p, policyB, vnet.DefaultPingSize, time.Minute)
					netem.PadFiller(e.rules, 1000)
					p.SleepUntil(sim.Time(time.Second))
					padded, ok2 := e.a.Ping(p, policyB, vnet.DefaultPingSize, time.Minute)
					e.notef("ping: replies %v %v, rule cost %v", ok1, ok2, padded-base)
				})
			},
			check: func(t *testing.T, r policyResult) {
				want := fmt.Sprintf("ping: replies true true, rule cost %v", 2*1000*netem.DefaultPerRuleCost)
				if !r.has(want) {
					t.Errorf("notes:\n%swant %q", r.notes, want)
				}
			},
		},
		{
			// The sender's interface flaps, then the receiver's: each
			// outage costs two blocked attempts and heals on the third.
			name: "link-flap",
			script: func(e *policyEnv) {
				e.serve()
				e.client(func(p *sim.Proc, c *vnet.Conn) {
					for i, h := range []*vnet.Host{e.a, e.b} {
						h := h
						e.n.SetLinkUp(h, false)
						e.k.After(500*time.Millisecond, func() { e.n.SetLinkUp(h, true) })
						e.send(p, c)
						p.SleepUntil(sim.Time(time.Duration(3*(i+1)) * time.Second))
					}
					c.Close(p)
				})
			},
			check: func(t *testing.T, r policyResult) {
				healed(t, r, 4, 2)
				if r.count("net.link") != 4 {
					t.Errorf("%d net.link record(s), want 4", r.count("net.link"))
				}
			},
		},
		{
			// The link model itself refuses every attempt: the sender's
			// up-link, the first pipe of the path, loses everything.
			name: "loss-exhaustion",
			script: func(e *policyEnv) {
				e.serve()
				e.client(func(p *sim.Proc, c *vnet.Conn) {
					e.n.SetLinkLoss(e.a, 1)
					e.send(p, c)
					e.awaitReset(p, c)
					e.notef("a/up lost %d", e.a.UpPipe().Stats().Lost)
				})
			},
			check: func(t *testing.T, r policyResult) {
				gaveUp(t, r, 1)
				if want := fmt.Sprintf("a/up lost %d", maxRetx+1); !r.has(want) {
					t.Errorf("notes:\n%swant %q", r.notes, want)
				}
			},
		},
		{
			// Three matched pipe rules stack onto the path (five pipes,
			// past the xfer's inline path storage); the last one loses
			// the first two attempts mid-path, then recovers.
			name:     "stacked-pipes",
			firewall: true,
			script: func(e *policyEnv) {
				var wan *netem.Pipe
				for i := 0; i < 3; i++ {
					wan = netem.NewPipe(e.k, fmt.Sprintf("wan%d", i), netem.PipeConfig{Delay: time.Millisecond})
					e.rules.AddPipe(ip.NewPrefix(policyA, 32), ip.NewPrefix(policyB, 32), wan)
				}
				e.serve()
				e.client(func(p *sim.Proc, c *vnet.Conn) {
					healthy := wan.Config()
					wan.Reconfigure(netem.PipeConfig{Delay: healthy.Delay, Loss: 1})
					e.k.After(500*time.Millisecond, func() { wan.Reconfigure(healthy) })
					e.send(p, c)
					p.SleepUntil(sim.Time(3 * time.Second))
					c.Close(p)
					p.SleepUntil(sim.Time(4 * time.Second)) // the FIN has landed
					e.notef("wan2 lost %d carried %d", wan.Stats().Lost, wan.Stats().Messages)
				})
			},
			check: func(t *testing.T, r policyResult) {
				healed(t, r, 2, 1)
				// SYN, the third data attempt and the FIN cross a→b.
				if !r.has("wan2 lost 2 carried 3") {
					t.Errorf("notes:\n%s", r.notes)
				}
			},
		},
		{
			name: "unknown-destination",
			script: func(e *policyEnv) {
				e.k.Go("client", func(p *sim.Proc) {
					_, err := e.a.Dial(p, ip.Endpoint{Addr: nowhere, Port: 80})
					e.notef("client: dial unreachable=%v", errors.Is(err, vnet.ErrNetUnreachable))
					pc, err := e.a.ListenPacket(p, 0)
					if err != nil {
						e.t.Errorf("listen-packet: %v", err)
						return
					}
					pc.SendTo(p, ip.Endpoint{Addr: nowhere, Port: 9}, []byte("x"))
					pc.Close()
				})
			},
			check: func(t *testing.T, r policyResult) {
				if want := (vnet.NetworkStats{MessagesSent: 2, MessagesDropped: 2}); r.stats != want || !r.has("client: dial unreachable=true") {
					t.Errorf("stats = %+v, want %+v; notes:\n%s", r.stats, want, r.notes)
				}
			},
		},
	}

	for _, sc := range scenarios {
		for _, links := range policyLinks {
			sc, links := sc, links
			t.Run(sc.name+"/"+links.name, func(t *testing.T) {
				var ref policyResult
				for i, m := range policyModels {
					r := runPolicy(t, sc, m.kind, m.window, links.up, links.down)
					checkConserved(t, r.stats)
					if i == 0 {
						ref = r
						sc.check(t, r)
						continue
					}
					if r.stats != ref.stats {
						t.Errorf("%s stats = %+v, pipe model's = %+v", m.name, r.stats, ref.stats)
					}
					if i >= links.exact {
						continue
					}
					if r.notes != ref.notes {
						t.Errorf("%s applications observed\n%s\npipe model's observed\n%s", m.name, r.notes, ref.notes)
					}
					if r.trace != ref.trace {
						t.Errorf("%s trace differs from the pipe model's:\n%s\npipe:\n%s", m.name, r.trace, ref.trace)
					}
				}
			})
		}
	}
}

// walkFabric is a test Fabric that puts a fixed list of pipes between
// every pair of hosts.
type walkFabric struct{ pipes []*netem.Pipe }

func (f *walkFabric) Route(_, _ ip.Addr, _ int) vnet.Route { return vnet.Route{Pipes: f.pipes} }

// walkCase is one differential scenario: senders with their own
// up-links, shared fabric pipes, one receiver, and a send plan.
type walkCase struct {
	ups    []netem.PipeConfig // one sender per entry
	fabric []netem.PipeConfig
	down   netem.PipeConfig
	sends  []walkSend
}

type walkSend struct {
	at     time.Duration
	sender int
	size   int // payload bytes; unique within a case, it identifies the message
}

// genWalkPipe draws one pipe in the shape of the flow package's
// genConfig (delay, sometimes jitter, sometimes loss), except that any
// pipe may be bandwidth-limited: both sides here are store-and-forward,
// so several parked hops per path is the interesting case.
func genWalkPipe(rng *rand.Rand) netem.PipeConfig {
	var cfg netem.PipeConfig
	if rng.Intn(4) != 0 {
		cfg.Delay = time.Duration(rng.Intn(100)) * time.Millisecond
	}
	if rng.Intn(2) == 0 {
		cfg.Jitter = time.Duration(1+rng.Intn(10)) * time.Millisecond
	}
	if rng.Intn(4) == 0 {
		cfg.Loss = 0.2 * rng.Float64()
	}
	if rng.Intn(2) == 0 {
		cfg.Bandwidth = int64(64+rng.Intn(2048)) * netem.Kbps
	}
	if cfg.Bandwidth > 0 && rng.Intn(4) == 0 {
		cfg.QueueBytes = int64(16+rng.Intn(64)) << 10
	}
	return cfg
}

// genWalkCase draws one sender, zero to two fabric pipes and a burst of
// sends close enough together to queue behind one another.
func genWalkCase(rng *rand.Rand) walkCase {
	wc := walkCase{ups: []netem.PipeConfig{genWalkPipe(rng)}, down: genWalkPipe(rng)}
	for i := rng.Intn(3); i > 0; i-- {
		wc.fabric = append(wc.fabric, genWalkPipe(rng))
	}
	at := time.Duration(0)
	used := map[int]bool{}
	for i := 5 + rng.Intn(20); i > 0; i-- {
		at += time.Duration(1+rng.Intn(200_000)) * time.Microsecond
		size := 64 + rng.Intn(32*1024)
		for used[size] {
			size++
		}
		used[size] = true
		wc.sends = append(wc.sends, walkSend{at: at, size: size})
	}
	return wc
}

// walkOutcome maps a message's wire size to its delivery instant, or to
// -1 when it was dropped.
type walkOutcome map[int]sim.Time

// viaNetwork plays the case through a pipe-model vnet.Network —
// datagrams, so one attempt each — and reads delivery instants and drop
// verdicts off the trace.
func (wc walkCase) viaNetwork(t *testing.T, seed int64) walkOutcome {
	t.Helper()
	k := sim.New(seed)
	cfg := vnet.DefaultConfig()
	cfg.SyscallCosts = vnet.SyscallCosts{} // SendTo transmits at the instant it is called
	fab := &walkFabric{}
	for i, pc := range wc.fabric {
		fab.pipes = append(fab.pipes, netem.NewPipe(k, fmt.Sprintf("fabric%d", i), pc))
	}
	n := vnet.NewNetwork(k, fab, cfg)
	log := trace.New(0)
	n.SetTrace(log)
	dst := ip.MustParseAddr("10.0.1.1")
	if _, err := n.AddHost(dst, netem.PipeConfig{}, wc.down); err != nil {
		t.Fatal(err)
	}
	for i, up := range wc.ups {
		i := i
		h, err := n.AddHost(ip.MustParseAddr("10.0.0.1").Add(uint32(i)), up, netem.PipeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		k.Go(fmt.Sprintf("sender-%d", i), func(p *sim.Proc) {
			pc, err := h.ListenPacket(p, 0)
			if err != nil {
				t.Errorf("listen-packet: %v", err)
				return
			}
			for _, s := range wc.sends {
				if s.sender == i {
					p.SleepUntil(sim.Time(s.at))
					pc.SendTo(p, ip.Endpoint{Addr: dst, Port: 9}, make([]byte, s.size))
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	out := walkOutcome{}
	for _, ev := range log.Events() {
		var wire int
		switch ev.Cat {
		case "net.deliver":
			fmt.Sscanf(ev.Msg, "%d B", &wire)
			out[wire] = ev.At
		case "net.drop":
			fmt.Sscanf(ev.Msg, "%d B", &wire)
			out[wire] = -1
		}
	}
	return out
}

// viaPipeModel plays the same case through netem.PipeModel.Transfer on
// fresh identical pipes.
func (wc walkCase) viaPipeModel(t *testing.T, seed int64) walkOutcome {
	t.Helper()
	k := sim.New(seed)
	pm := netem.NewPipeModel(k)
	var fabric []*netem.Pipe
	for i, pc := range wc.fabric {
		fabric = append(fabric, netem.NewPipe(k, fmt.Sprintf("fabric%d", i), pc))
	}
	down := netem.NewPipe(k, "down", wc.down)
	var paths [][]*netem.Pipe
	for i, up := range wc.ups {
		path := []*netem.Pipe{netem.NewPipe(k, fmt.Sprintf("up%d", i), up)}
		paths = append(paths, append(append(path, fabric...), down))
	}
	out := walkOutcome{}
	header := vnet.DefaultConfig().HeaderBytes
	for _, s := range wc.sends {
		wire, path := s.size+header, paths[s.sender]
		k.At(sim.Time(s.at), func() {
			pm.Transfer(k.Now(), wire, path, k.Rand(), func(exit sim.Time, ok bool) {
				if !ok {
					exit = -1
				}
				out[wire] = exit
			})
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPipeWalkMatchesPipeModel pins the two store-and-forward hop walks
// together: xfer.step, which a pipe-model network runs inline on its
// pooled journey, and netem.PipeModel.Transfer, the reference the flow
// engine is compared with (TestFlowPipeEquivalence). Same pipes, same
// seed, same send instants: same delivery instants and drop verdicts.
func TestPipeWalkMatchesPipeModel(t *testing.T) {
	compare := func(t *testing.T, wc walkCase, seed int64) walkOutcome {
		t.Helper()
		got, want := wc.viaNetwork(t, seed), wc.viaPipeModel(t, seed)
		if len(got) != len(wc.sends) || len(want) != len(wc.sends) {
			t.Fatalf("%d message(s) sent, network accounts for %d, PipeModel for %d", len(wc.sends), len(got), len(want))
		}
		for wire, exit := range want {
			if got[wire] != exit {
				t.Errorf("%d B message: network %v, PipeModel.Transfer %v (-1 = dropped)\ncase %+v", wire, got[wire], exit, wc)
			}
		}
		return want
	}
	t.Run("random-paths", func(t *testing.T) {
		meta := rand.New(rand.NewSource(2026))
		var delivered, dropped int
		for trial := 0; trial < 60; trial++ {
			wc := genWalkCase(meta)
			for _, exit := range compare(t, wc, meta.Int63()) {
				if exit < 0 {
					dropped++
				} else {
					delivered++
				}
			}
		}
		if delivered == 0 || dropped == 0 {
			t.Errorf("generator is one-sided: %d delivered, %d dropped", delivered, dropped)
		}
	})
	// The case PipeModel's doc comment is about: a NIC shared by two
	// senders whose access delays differ, so messages reach it in the
	// opposite order to the one they were sent in.
	t.Run("shared-pipe", func(t *testing.T) {
		wc := walkCase{
			ups: []netem.PipeConfig{
				{Bandwidth: 2 * netem.Mbps, Delay: 80 * time.Millisecond},
				{Bandwidth: 2 * netem.Mbps, Delay: 5 * time.Millisecond},
			},
			fabric: []netem.PipeConfig{{Bandwidth: netem.Mbps, Delay: time.Millisecond}},
			down:   netem.PipeConfig{Bandwidth: 8 * netem.Mbps, Delay: 5 * time.Millisecond},
		}
		for i := 0; i < 8; i++ {
			wc.sends = append(wc.sends,
				walkSend{at: time.Duration(20*i) * time.Millisecond, sender: 0, size: 1000 + i},
				walkSend{at: time.Duration(20*i+1) * time.Millisecond, sender: 1, size: 2000 + i})
		}
		compare(t, wc, 7)
	})
}
