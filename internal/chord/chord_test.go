package chord

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vnet"
)

func TestBetween(t *testing.T) {
	cases := []struct {
		x, a, b ID
		want    bool
	}{
		{5, 1, 10, true},
		{1, 1, 10, false}, // open at a
		{10, 1, 10, true}, // closed at b
		{15, 1, 10, false},
		{5, 10, 1, false}, // wrapping interval (10, 1]
		{15, 10, 1, true}, // inside the wrap
		{0, 10, 1, true},  // inside the wrap
		{7, 7, 7, true},   // a==b covers the circle
		{100, 7, 7, true},
	}
	for _, c := range cases {
		if got := Between(c.x, c.a, c.b); got != c.want {
			t.Errorf("Between(%d, %d, %d) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestBetweenOpen(t *testing.T) {
	if BetweenOpen(10, 1, 10) {
		t.Error("open at b")
	}
	if !BetweenOpen(5, 1, 10) {
		t.Error("inside")
	}
	if BetweenOpen(7, 7, 7) {
		t.Error("x==a excluded even on full circle")
	}
	if !BetweenOpen(8, 7, 7) {
		t.Error("full circle includes others")
	}
}

func TestBetweenProperty(t *testing.T) {
	// Exactly one of the two half-circle intervals contains any x not
	// equal to either endpoint.
	f := func(xr, ar, br uint32) bool {
		x, a, b := ID(xr), ID(ar), ID(br)
		if x == a || x == b || a == b {
			return true
		}
		return BetweenOpen(x, a, b) != BetweenOpen(x, b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFingerStartWraps(t *testing.T) {
	n := ID(1<<32 - 10)
	if fingerStart(n, 4) != ID(6) {
		t.Fatalf("fingerStart wrap = %d", fingerStart(n, 4))
	}
}

func TestHashDeterministic(t *testing.T) {
	a := ip.MustParseAddr("10.0.0.1")
	if HashAddr(a) != HashAddr(a) {
		t.Fatal("hash must be deterministic")
	}
	if HashAddr(a) == HashAddr(ip.MustParseAddr("10.0.0.2")) {
		t.Fatal("different addrs should hash apart")
	}
	if HashKey("k1") == HashKey("k2") {
		t.Fatal("different keys should hash apart")
	}
}

// ring builds an n-node Chord ring on fast links, runs maintenance for
// warm seconds of virtual time, then calls check inside the sim.
func ring(t *testing.T, n int, warm time.Duration, check func(p *sim.Proc, nodes []*Node)) {
	t.Helper()
	k := sim.New(1)
	net := vnet.NewNetwork(k, nil, vnet.DefaultConfig())
	lan := topo.LinkClass{Name: "lan", Down: netem.Gbps, Up: netem.Gbps, Latency: time.Millisecond}
	var nodes []*Node
	base := ip.MustParseAddr("10.0.0.1")
	for i := 0; i < n; i++ {
		h, err := net.AddHostClass(base.Add(uint32(i)), lan)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, NewNode(h))
	}
	nodes[0].Create()
	bootstrap := nodes[0].Ref().Addr
	for i := 1; i < n; i++ {
		// Stagger joins so stabilization keeps up (as in the Chord
		// paper's experiments).
		i := i
		k.After(time.Duration(i)*500*time.Millisecond, func() { nodes[i].Join(bootstrap) })
	}
	k.Go("checker", func(p *sim.Proc) {
		p.Sleep(warm)
		check(p, nodes)
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// ringIsCorrect verifies the successor pointers form the sorted-ID
// cycle over all alive nodes.
func ringIsCorrect(nodes []*Node) error {
	var alive []*Node
	for _, nd := range nodes {
		if nd.Alive() {
			alive = append(alive, nd)
		}
	}
	sort.Slice(alive, func(i, j int) bool { return alive[i].ID() < alive[j].ID() })
	for i, nd := range alive {
		want := alive[(i+1)%len(alive)].ID()
		if nd.Successor().ID != want {
			return fmt.Errorf("node %08x successor = %08x, want %08x",
				uint32(nd.ID()), uint32(nd.Successor().ID), uint32(want))
		}
	}
	return nil
}

func TestRingConverges(t *testing.T) {
	ring(t, 16, 60*time.Second, func(p *sim.Proc, nodes []*Node) {
		if err := ringIsCorrect(nodes); err != nil {
			t.Error(err)
		}
	})
}

func TestLookupFindsCorrectOwner(t *testing.T) {
	ring(t, 16, 60*time.Second, func(p *sim.Proc, nodes []*Node) {
		ids := make([]ID, len(nodes))
		for i, nd := range nodes {
			ids[i] = nd.ID()
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		owner := func(key ID) ID {
			for _, id := range ids {
				if id >= key {
					return id
				}
			}
			return ids[0] // wrap
		}
		for i := 0; i < 50; i++ {
			key := fmt.Sprintf("key-%d", i)
			res, err := nodes[i%len(nodes)].Lookup(p, key)
			if err != nil {
				t.Fatalf("lookup %s: %v", key, err)
			}
			if res.Owner.ID != owner(HashKey(key)) {
				t.Fatalf("lookup %s: owner %08x, want %08x",
					key, uint32(res.Owner.ID), uint32(owner(HashKey(key))))
			}
		}
	})
}

func TestLookupHopsLogarithmic(t *testing.T) {
	ring(t, 32, 120*time.Second, func(p *sim.Proc, nodes []*Node) {
		totalHops := 0
		const lookups = 100
		for i := 0; i < lookups; i++ {
			res, err := nodes[i%len(nodes)].Lookup(p, fmt.Sprintf("k%d", i))
			if err != nil {
				t.Fatalf("lookup: %v", err)
			}
			totalHops += res.Hops
		}
		avg := float64(totalHops) / lookups
		// log2(32) = 5; Chord's expectation is ½·log2(N) ≈ 2.5.
		if avg > 6 {
			t.Errorf("average hops = %.2f, want O(log N) ≈ 2.5", avg)
		}
	})
}

func TestRingHealsAfterDepartures(t *testing.T) {
	ring(t, 16, 60*time.Second, func(p *sim.Proc, nodes []*Node) {
		// Kill a quarter of the ring abruptly.
		for i := 0; i < 4; i++ {
			nodes[i*4+1].Leave()
		}
		p.Sleep(90 * time.Second) // let stabilization heal
		if err := ringIsCorrect(nodes); err != nil {
			t.Error(err)
		}
		// Lookups from a survivor still resolve.
		for i := 0; i < 10; i++ {
			if _, err := nodes[0].Lookup(p, fmt.Sprintf("after-%d", i)); err != nil {
				t.Fatalf("post-churn lookup: %v", err)
			}
		}
	})
}

func TestSingleNodeRing(t *testing.T) {
	ring(t, 1, 10*time.Second, func(p *sim.Proc, nodes []*Node) {
		res, err := nodes[0].Lookup(p, "anything")
		if err != nil {
			t.Fatal(err)
		}
		if res.Owner.ID != nodes[0].ID() {
			t.Fatal("sole node must own everything")
		}
	})
}

func TestLookupLatencyReflectsTopology(t *testing.T) {
	// Two rings, identical membership: one on a LAN, one on DSL with
	// 30 ms latency. Lookup latency must be dominated by link latency.
	latency := func(class topo.LinkClass) time.Duration {
		k := sim.New(1)
		net := vnet.NewNetwork(k, nil, vnet.DefaultConfig())
		var nodes []*Node
		base := ip.MustParseAddr("10.0.0.1")
		for i := 0; i < 8; i++ {
			h, _ := net.AddHostClass(base.Add(uint32(i)), class)
			nodes = append(nodes, NewNode(h))
		}
		nodes[0].Create()
		for i := 1; i < 8; i++ {
			i := i
			k.After(time.Duration(i)*500*time.Millisecond, func() { nodes[i].Join(nodes[0].Ref().Addr) })
		}
		var total time.Duration
		k.Go("measure", func(p *sim.Proc) {
			p.Sleep(40 * time.Second)
			for i := 0; i < 20; i++ {
				res, err := nodes[i%8].Lookup(p, fmt.Sprintf("k%d", i))
				if err == nil {
					total += res.Latency
				}
			}
			k.Stop()
		})
		k.Run()
		return total / 20
	}
	lan := latency(topo.LinkClass{Name: "lan", Down: netem.Gbps, Up: netem.Gbps, Latency: time.Millisecond})
	dsl := latency(topo.DSL)
	if dsl < 5*lan {
		t.Fatalf("DSL lookups (%v) should be much slower than LAN (%v)", dsl, lan)
	}
}

// TestNodeStatsAccumulate reads the nodes' timeouts where they count
// them, in the network's registry, while the ring is still running.
func TestNodeStatsAccumulate(t *testing.T) {
	ring(t, 8, 40*time.Second, func(p *sim.Proc, nodes []*Node) {
		reg := nodes[0].h.Network().Obs()
		before := reg.Snapshot().Total("p2plab_dht_timeouts_total")
		// A node that leaves abruptly stops answering: its ring
		// neighbours' maintenance RPCs to it time out.
		nodes[3].Leave()
		p.Sleep(30 * time.Second)
		if after := reg.Snapshot().Total("p2plab_dht_timeouts_total"); after <= before {
			t.Fatalf("timeouts %g before a departure, %g after it", before, after)
		}
	})
}

func TestNodeRefString(t *testing.T) {
	r := NodeRef{ID: 0xdeadbeef, Addr: ip.Endpoint{Addr: ip.MustParseAddr("10.0.0.1"), Port: Port}}
	if r.String() != "deadbeef@10.0.0.1:4000" {
		t.Fatalf("String = %q", r.String())
	}
	if !((NodeRef{}).IsZero()) {
		t.Fatal("zero ref should be zero")
	}
}
