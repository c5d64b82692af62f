package virt

import (
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vnet"
)

// testbed builds a kernel, cluster, network and n DSL hosts.
func testbed(t *testing.T, physNodes, hosts int, tp *topo.Topology) (*sim.Kernel, *Cluster, *vnet.Network, []*vnet.Host) {
	t.Helper()
	k := sim.New(1)
	cl, err := NewCluster(k, physNodes, DefaultConfig(tp))
	if err != nil {
		t.Fatal(err)
	}
	n := vnet.NewNetwork(k, cl, vnet.DefaultConfig())
	var hs []*vnet.Host
	base := ip.MustParseAddr("10.0.0.1")
	for i := 0; i < hosts; i++ {
		h, err := n.AddHostClass(base.Add(uint32(i)), topo.DSL)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	return k, cl, n, hs
}

func TestClusterAdminAddresses(t *testing.T) {
	// The physical nodes own the admin subnet (phys0 is 192.168.38.1):
	// no virtual node may be placed inside it.
	k := sim.New(1)
	cl, err := NewCluster(k, 3, DefaultConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	n := vnet.NewNetwork(k, cl, vnet.DefaultConfig())
	h, err := n.AddHostClass(ip.MustParseAddr("192.168.38.1"), topo.DSL)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.PlaceSuccessive([]*vnet.Host{h}, 1); err == nil {
		t.Fatal("a virtual node was placed on phys0's admin address")
	}
}

func TestClusterTooManyForAdminSubnet(t *testing.T) {
	k := sim.New(1)
	if _, err := NewCluster(k, 300, DefaultConfig(nil)); err == nil {
		t.Fatal("300 nodes cannot fit a /24 admin subnet")
	}
}

func TestPlaceSuccessive(t *testing.T) {
	_, cl, _, hs := testbed(t, 4, 40, nil)
	if err := cl.PlaceSuccessive(hs, 10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := len(cl.Node(i).Aliases()); got != 10 {
			t.Fatalf("phys%d hosts %d aliases, want 10", i, got)
		}
	}
	// First host on phys0, eleventh on phys1.
	if cl.NodeOf(hs[0].Addr()) != cl.Node(0) {
		t.Fatal("host 0 should be on phys0")
	}
	if cl.NodeOf(hs[10].Addr()) != cl.Node(1) {
		t.Fatal("host 10 should be on phys1")
	}
	if cl.FoldingRatio() != 10 {
		t.Fatalf("folding ratio = %v, want 10", cl.FoldingRatio())
	}
}

func TestPlaceOverflow(t *testing.T) {
	_, cl, _, hs := testbed(t, 2, 30, nil)
	if err := cl.PlaceSuccessive(hs, 10); err == nil {
		t.Fatal("30 hosts at 10/node need 3 phys nodes, only 2 exist")
	}
}

func TestPlaceDuplicate(t *testing.T) {
	_, cl, _, hs := testbed(t, 2, 1, nil)
	if err := cl.PlaceSuccessive(hs, 1); err != nil {
		t.Fatal(err)
	}
	if err := cl.PlaceSuccessive(hs, 1); err == nil {
		t.Fatal("placing the same address twice should fail")
	}
}

func TestPlaceAdminCollision(t *testing.T) {
	k := sim.New(1)
	cl, _ := NewCluster(k, 1, DefaultConfig(nil))
	n := vnet.NewNetwork(k, cl, vnet.DefaultConfig())
	h, err := n.AddHostClass(ip.MustParseAddr("192.168.38.77"), topo.DSL)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.PlaceSuccessive([]*vnet.Host{h}, 1); err == nil {
		t.Fatal("alias inside the admin subnet must be rejected")
	}
}

func TestTwoRulesPerVirtualNode(t *testing.T) {
	// The paper: "two rules for each hosted virtual node (incoming and
	// outgoing packets)".
	_, cl, _, hs := testbed(t, 1, 25, nil)
	if err := cl.PlaceSuccessive(hs, 25); err != nil {
		t.Fatal(err)
	}
	if got := cl.Node(0).Rules().Len(); got != 50 {
		t.Fatalf("rules = %d, want 50 (2 × 25 vnodes)", got)
	}
}

func TestGroupLatencyRulesInstalled(t *testing.T) {
	// A phys node hosting a 10.1.3.x node needs rules toward the other
	// 10.1 ISPs (2) and regions 2 and 3 via region-1 (2): 4 group rules
	// plus 2 per-vnode rules.
	k := sim.New(1)
	tp := topo.Fig7()
	cl, err := NewCluster(k, 1, DefaultConfig(tp))
	if err != nil {
		t.Fatal(err)
	}
	n := vnet.NewNetwork(k, cl, vnet.DefaultConfig())
	h, err := n.AddHostClass(ip.MustParseAddr("10.1.3.207"), topo.FastDSL)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.PlaceSuccessive([]*vnet.Host{h}, 1); err != nil {
		t.Fatal(err)
	}
	if got := cl.Node(0).Rules().Len(); got != 6 {
		t.Fatalf("rules = %d, want 6 (2 per-vnode + 4 group)", got)
	}
}

func TestRouteSamePhysSkipsNIC(t *testing.T) {
	_, cl, _, hs := testbed(t, 2, 2, nil)
	if err := cl.PlaceSuccessive(hs, 2); err != nil { // both on phys0
		t.Fatal(err)
	}
	r := cl.Route(hs[0].Addr(), hs[1].Addr(), 1000)
	for _, p := range r.Pipes {
		if p == cl.Node(0).NICOut() || p == cl.Node(0).NICIn() {
			t.Fatal("co-hosted route must not traverse the NIC")
		}
	}
}

func TestRouteCrossPhysUsesNIC(t *testing.T) {
	_, cl, _, hs := testbed(t, 2, 2, nil)
	if err := cl.PlaceSuccessive(hs, 1); err != nil {
		t.Fatal(err)
	}
	r := cl.Route(hs[0].Addr(), hs[1].Addr(), 1000)
	foundOut, foundIn := false, false
	for _, p := range r.Pipes {
		if p == cl.Node(0).NICOut() {
			foundOut = true
		}
		if p == cl.Node(1).NICIn() {
			foundIn = true
		}
	}
	if !foundOut || !foundIn {
		t.Fatalf("cross-phys route missing NIC pipes (out=%v in=%v)", foundOut, foundIn)
	}
}

func TestRouteChargesRuleCost(t *testing.T) {
	_, cl, _, hs := testbed(t, 1, 50, nil)
	if err := cl.PlaceSuccessive(hs, 50); err != nil {
		t.Fatal(err)
	}
	// 100 rules on the table; egress + ingress scans visit all of them.
	r := cl.Route(hs[0].Addr(), hs[1].Addr(), 100)
	wantRules := time.Duration(200) * netem.DefaultPerRuleCost
	wantCPU := 2 * perMessageCPU
	if r.Cost != wantRules+wantCPU {
		t.Fatalf("cost = %v, want %v", r.Cost, wantRules+wantCPU)
	}
}

func TestRouteDenyRule(t *testing.T) {
	_, cl, _, hs := testbed(t, 1, 2, nil)
	if err := cl.PlaceSuccessive(hs, 2); err != nil {
		t.Fatal(err)
	}
	cl.Node(0).Rules().Add(netem.Rule{
		ID:     1, // before all per-vnode rules
		Src:    ip.NewPrefix(hs[0].Addr(), 32),
		Dst:    ip.NewPrefix(hs[1].Addr(), 32),
		Action: netem.ActionDeny,
	})
	r := cl.Route(hs[0].Addr(), hs[1].Addr(), 100)
	if !r.Drop {
		t.Fatal("deny rule should drop the route")
	}
}

func TestRouteUnplacedHostsZeroRoute(t *testing.T) {
	_, cl, _, hs := testbed(t, 1, 2, nil)
	r := cl.Route(hs[0].Addr(), hs[1].Addr(), 100)
	if len(r.Pipes) != 0 || r.Cost != 0 || r.Drop {
		t.Fatalf("unplaced route should be empty, got %+v", r)
	}
}

func TestRouteGroupLatency(t *testing.T) {
	k := sim.New(1)
	tp := topo.Fig7()
	cl, _ := NewCluster(k, 2, DefaultConfig(tp))
	n := vnet.NewNetwork(k, cl, vnet.DefaultConfig())
	a, _ := n.AddHostClass(ip.MustParseAddr("10.1.3.207"), topo.FastDSL)
	b, _ := n.AddHostClass(ip.MustParseAddr("10.2.2.117"), topo.Campus)
	cl.PlaceSuccessive([]*vnet.Host{a, b}, 1)
	r := cl.Route(a.Addr(), b.Addr(), 100)
	if r.Latency != 400*time.Millisecond {
		t.Fatalf("latency = %v, want 400ms", r.Latency)
	}
}

func TestEndToEndThroughCluster(t *testing.T) {
	// Full stack: two DSL hosts folded onto one phys node exchange a
	// message; delivery time dominated by the 128 kb/s up-link.
	k, cl, n, hs := testbed(t, 1, 2, nil)
	if err := cl.PlaceSuccessive(hs, 2); err != nil {
		t.Fatal(err)
	}
	var recvAt sim.Time
	k.Go("server", func(p *sim.Proc) {
		l, err := hs[1].Listen(p, 80)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		if _, err := c.Recv(p); err == nil {
			recvAt = p.Now()
		}
	})
	k.Go("client", func(p *sim.Proc) {
		p.Yield()
		c, err := hs[0].Dial(p, ip.Endpoint{Addr: hs[1].Addr(), Port: 80})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.SendMeta(p, 16000, nil)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recvAt == 0 {
		t.Fatal("message never delivered")
	}
	got := time.Duration(recvAt)
	if got < time.Second || got > 1500*time.Millisecond {
		t.Fatalf("delivery at %v, want ≈1.2s (DSL up-link bound)", got)
	}
	if n.Stats().MessagesDelivered == 0 {
		t.Fatal("no messages recorded")
	}
}

func TestFoldingRatioEmpty(t *testing.T) {
	k := sim.New(1)
	cl, _ := NewCluster(k, 4, DefaultConfig(nil))
	if cl.FoldingRatio() != 0 {
		t.Fatal("empty cluster folding ratio should be 0")
	}
}
