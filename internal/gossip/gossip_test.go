package gossip

import (
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vnet"
)

var lan = topo.LinkClass{Name: "lan", Down: netem.Gbps, Up: netem.Gbps, Latency: time.Millisecond}

// population builds n gossip nodes with full membership views.
func population(t *testing.T, seed int64, n int, class topo.LinkClass, fanout int) (*sim.Kernel, []*Node) {
	t.Helper()
	k := sim.New(seed)
	net := vnet.NewNetwork(k, nil, vnet.DefaultConfig())
	var nodes []*Node
	var eps []ip.Endpoint
	base := ip.MustParseAddr("10.0.0.1")
	for i := 0; i < n; i++ {
		h, err := net.AddHostClass(base.Add(uint32(i)), class)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, NewNode(h, fanout))
		eps = append(eps, ip.Endpoint{Addr: h.Addr(), Port: Port})
	}
	for _, nd := range nodes {
		nd.SetPeers(eps)
		nd.Start()
	}
	return k, nodes
}

// coverage returns how many nodes know update id.
func coverage(nodes []*Node, id uint64) int {
	c := 0
	for _, nd := range nodes {
		if nd.Knows(id) {
			c++
		}
	}
	return c
}

func TestRumorReachesEveryone(t *testing.T) {
	k, nodes := population(t, 1, 32, lan, 3)
	k.Go("publisher", func(p *sim.Proc) {
		p.Sleep(time.Second)
		nodes[0].Publish(Update{ID: 1})
		p.Sleep(30 * time.Second)
		if got := coverage(nodes, 1); got != 32 {
			t.Errorf("coverage = %d/32 after 30s", got)
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDisseminationIsLogarithmicRounds(t *testing.T) {
	// With fanout 3, coverage should be (nearly) complete within
	// ~log_3(N) + a few rounds — far sooner than N rounds.
	k, nodes := population(t, 1, 64, lan, 3)
	var at90 sim.Time
	k.Go("driver", func(p *sim.Proc) {
		start := p.Now()
		nodes[0].Publish(Update{ID: 7})
		for coverage(nodes, 7) < 58 { // 90% of 64
			p.Sleep(500 * time.Millisecond)
			if p.Now().Sub(start) > 5*time.Minute {
				t.Error("dissemination stalled")
				break
			}
		}
		at90 = p.Now()
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// log_3(64) ≈ 3.8 rounds of 1s; allow 12 rounds for stragglers.
	if at90 > sim.Time(12*time.Second) {
		t.Fatalf("90%% coverage took %v, want ≲12 rounds", at90)
	}
}

func TestAntiEntropyRepairsMissedRumor(t *testing.T) {
	// A node whose link is down while a rumor is hot (fanout 1, 5
	// nodes) misses every push; once its link heals, only the
	// anti-entropy digests can bring it the rumor.
	k, nodes := population(t, 1, 5, lan, 1)
	cut := nodes[4]
	net := cut.h.Network()
	k.Go("driver", func(p *sim.Proc) {
		net.SetLinkUp(cut.h, false)
		nodes[0].Publish(Update{ID: 42})
		p.Sleep(time.Minute)
		if got := coverage(nodes, 42); got != 4 {
			t.Errorf("coverage at the heal = %d/5, want 4 (all but the cut node)", got)
		}
		net.SetLinkUp(cut.h, true)
		p.Sleep(10 * time.Second)
		if got := coverage(nodes, 42); got != 5 {
			t.Errorf("anti-entropy left coverage at %d/5", got)
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleUpdatesAllDisseminate(t *testing.T) {
	k, nodes := population(t, 1, 16, lan, 3)
	k.Go("driver", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			nodes[i%16].Publish(Update{ID: uint64(100 + i)})
			p.Sleep(500 * time.Millisecond)
		}
		p.Sleep(time.Minute)
		for i := 0; i < 10; i++ {
			if got := coverage(nodes, uint64(100+i)); got != 16 {
				t.Errorf("update %d coverage = %d/16", 100+i, got)
			}
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicatesCounted(t *testing.T) {
	const fanout = 3
	k, nodes := population(t, 1, 8, lan, fanout)
	k.Go("driver", func(p *sim.Proc) {
		nodes[0].Publish(Update{ID: 1})
		p.Sleep(30 * time.Second)
		// At most 7 pushes can be first deliveries to the other nodes;
		// the rest are duplicates, arriving at a node that already
		// knows the update.
		var pushes uint64
		for _, nd := range nodes {
			pushes += nd.Stats.Pushes
		}
		if dups := int64(pushes) - int64(len(nodes)-1); dups <= 0 {
			t.Errorf("%d pushes, %d duplicates: push gossip with fanout 3 must produce duplicates", pushes, dups)
		}
		// A duplicate is dropped: it neither replaces the known update
		// nor makes the rumor hot again, so every node pushed it in at
		// most HotRounds rounds and has stopped.
		for i, nd := range nodes {
			if len(nd.known) != 1 || len(nd.hot) != 0 {
				t.Errorf("node %d: %d known, %d hot after 30 s, want 1 and 0", i, len(nd.known), len(nd.hot))
			}
			if limit := uint64(hotRounds * fanout); nd.Stats.Pushes > limit {
				t.Errorf("node %d pushed %d times, more than %d rounds × fanout %d", i, nd.Stats.Pushes, hotRounds, fanout)
			}
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyScalesWithLinkClass(t *testing.T) {
	// Same population and fanout on DSL: time to full coverage grows
	// with link latency but stays round-dominated.
	run := func(class topo.LinkClass) sim.Time {
		k, nodes := population(t, 1, 16, class, 3)
		var done sim.Time
		k.Go("driver", func(p *sim.Proc) {
			start := p.Now()
			nodes[0].Publish(Update{ID: 5})
			for coverage(nodes, 5) < 16 && p.Now().Sub(start) < 5*time.Minute {
				p.Sleep(250 * time.Millisecond)
			}
			done = p.Now()
			k.Stop()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	fast := run(lan)
	slow := run(topo.DSL)
	if slow < fast {
		t.Fatalf("DSL coverage (%v) should not beat LAN (%v)", slow, fast)
	}
}

func TestStoppedNodeStopsGossiping(t *testing.T) {
	k, nodes := population(t, 1, 8, lan, 3)
	k.Go("driver", func(p *sim.Proc) {
		nodes[3].Stop()
		p.Sleep(2 * time.Second) // let its loops drain
		before := nodes[3].Stats.Pushes
		nodes[0].Publish(Update{ID: 11})
		p.Sleep(30 * time.Second)
		if nodes[3].Stats.Pushes != before {
			t.Error("stopped node kept pushing")
		}
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWirePayloadsSortedByID is the regression test for the map-order
// bug the maporder analyzer flagged: the push batch, the
// anti-entropy digest and the digest reply were all built by ranging
// over a map, so the wire payload order — and with it the peer's learn
// order — changed from run to run. Payloads must come out in ID order
// no matter what order the maps were populated in.
func TestWirePayloadsSortedByID(t *testing.T) {
	n := &Node{
		known: make(map[uint64]Update),
		hot:   make(map[uint64]int),
	}
	// Populate in descending order so an insertion-ordered (or
	// map-iteration-ordered) implementation is maximally likely to
	// come out unsorted.
	ids := []uint64{907, 512, 404, 33, 12, 5, 2}
	for _, id := range ids {
		n.known[id] = Update{ID: id}
		n.hot[id] = 2
	}

	batch := n.collectHot()
	if len(batch) != len(ids) {
		t.Fatalf("collectHot returned %d updates, want %d", len(batch), len(ids))
	}
	for i := 1; i < len(batch); i++ {
		if batch[i-1].ID >= batch[i].ID {
			t.Fatalf("push batch not in ascending ID order: %v", batch)
		}
	}

	have := n.digestIDs()
	if len(have) != len(ids) {
		t.Fatalf("digestIDs returned %d IDs, want %d", len(have), len(ids))
	}
	for i := 1; i < len(have); i++ {
		if have[i-1] >= have[i] {
			t.Fatalf("digest not in ascending ID order: %v", have)
		}
	}

	// A peer that only has the two smallest IDs must get the rest back
	// in ascending order.
	missing := n.missingFor([]uint64{2, 5})
	if len(missing) != len(ids)-2 {
		t.Fatalf("missingFor returned %d updates, want %d", len(missing), len(ids)-2)
	}
	for i, u := range missing {
		if i > 0 && missing[i-1].ID >= u.ID {
			t.Fatalf("digest reply not in ascending ID order: %v", missing)
		}
		if u.ID == 2 || u.ID == 5 {
			t.Fatalf("digest reply includes an ID the peer already has: %v", missing)
		}
	}

	// collectHot also drains hotness: two rounds empty the hot set.
	n.collectHot()
	if got := n.collectHot(); len(got) != 0 {
		t.Fatalf("hot set not drained after HotRounds rounds: %v", got)
	}
}
