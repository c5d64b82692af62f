package topo

import (
	"testing"
	"time"

	"repro/internal/ip"
)

func TestAddGroupDuplicateName(t *testing.T) {
	tp := New()
	tp.MustAddGroup(Group{Name: "a", Prefix: ip.MustParsePrefix("10.1.0.0/16"), Nodes: 1})
	if _, err := tp.AddGroup(Group{Name: "a", Prefix: ip.MustParsePrefix("10.2.0.0/16"), Nodes: 1}); err == nil {
		t.Fatal("duplicate name should fail")
	}
}

// TestAddGroupRejectsOverlap: groups are disjoint, so a prefix that
// holds, lies inside or equals another group's is refused, whichever
// is added first; a neighbouring prefix is not.
func TestAddGroupRejectsOverlap(t *testing.T) {
	for _, c := range []struct{ first, second string }{
		{"10.1.0.0/16", "10.1.3.0/24"}, // inside
		{"10.1.3.0/24", "10.1.0.0/16"}, // around
		{"10.1.0.0/16", "10.0.0.0/8"},  // around, a shorter mask
		{"10.0.0.0/8", "10.0.0.0/16"},  // inside, same base address
		{"10.1.0.0/16", "10.1.0.0/16"}, // equal
	} {
		tp := New()
		tp.MustAddGroup(Group{Name: "a", Prefix: ip.MustParsePrefix(c.first), Nodes: 1})
		if _, err := tp.AddGroup(Group{Name: "b", Prefix: ip.MustParsePrefix(c.second), Nodes: 1}); err == nil {
			t.Errorf("%s after %s: overlap accepted", c.second, c.first)
		}
		if len(tp.Groups()) != 1 {
			t.Errorf("%s after %s: rejected group registered", c.second, c.first)
		}
	}
	tp := New()
	tp.MustAddGroup(Group{Name: "a", Prefix: ip.MustParsePrefix("10.1.2.0/24"), Nodes: 1})
	if _, err := tp.AddGroup(Group{Name: "b", Prefix: ip.MustParsePrefix("10.1.3.0/24"), Nodes: 1}); err != nil {
		t.Fatalf("disjoint neighbour rejected: %v", err)
	}
}

// TestAddGroupRejectsNoNodes: a group is its nodes; an empty one
// cannot be added.
func TestAddGroupRejectsNoNodes(t *testing.T) {
	tp := New()
	for _, n := range []int{0, -1} {
		if _, err := tp.AddGroup(Group{Name: "x", Prefix: ip.MustParsePrefix("10.1.0.0/16"), Nodes: n}); err == nil {
			t.Errorf("group of %d nodes accepted", n)
		}
	}
}

func TestAddGroupTooManyNodes(t *testing.T) {
	tp := New()
	if _, err := tp.AddGroup(Group{Name: "x", Prefix: ip.MustParsePrefix("10.1.3.0/24"), Nodes: 300}); err == nil {
		t.Fatal("300 nodes cannot fit a /24")
	}
}

func TestSetLatencyUnknownGroup(t *testing.T) {
	tp := New()
	tp.MustAddGroup(Group{Name: "a", Prefix: ip.MustParsePrefix("10.1.0.0/16"), Nodes: 1})
	if err := tp.SetLatency("a", "nope", time.Second); err == nil {
		t.Fatal("unknown group should fail")
	}
}

func TestLocate(t *testing.T) {
	tp := Fig7()
	g := tp.Locate(ip.MustParseAddr("10.1.3.207"))
	if g == nil || g.Name != "isp-fast-dsl" {
		t.Fatalf("Locate = %v, want isp-fast-dsl", g)
	}
	if tp.Locate(ip.MustParseAddr("10.1.4.1")) != nil {
		t.Fatal("an address between the 10.1 ISPs has no group")
	}
	if tp.Locate(ip.MustParseAddr("192.168.38.1")) != nil {
		t.Fatal("admin subnet should not be located")
	}
}

func TestFig7GroupLatencies(t *testing.T) {
	tp := Fig7()
	cases := []struct {
		src, dst string
		want     time.Duration
	}{
		{"10.1.3.207", "10.2.2.117", 400 * time.Millisecond}, // region-1 ↔ region-2
		{"10.1.3.207", "10.1.1.5", 100 * time.Millisecond},   // ISP ↔ ISP inside region 1
		{"10.1.3.207", "10.3.0.9", 600 * time.Millisecond},   // region-1 ↔ region-3
		{"10.2.2.117", "10.3.0.9", 1000 * time.Millisecond},  // region-2 ↔ region-3
		{"10.1.3.207", "10.1.3.10", 0},                       // same ISP
	}
	for _, c := range cases {
		got := tp.GroupLatency(ip.MustParseAddr(c.src), ip.MustParseAddr(c.dst))
		if got != c.want {
			t.Errorf("GroupLatency(%s→%s) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

func TestFig7PathLatencyDecomposition(t *testing.T) {
	// The paper's worked example: 10.1.3.207 → 10.2.2.117 one way is
	// 20 ms (fast-dsl egress) + 400 ms (region pair) + 5 ms (campus
	// ingress) = 425 ms; the measured RTT was 853 ms (850 + overhead).
	tp := Fig7()
	oneWay := tp.PathLatency(ip.MustParseAddr("10.1.3.207"), ip.MustParseAddr("10.2.2.117"))
	if oneWay != 425*time.Millisecond {
		t.Fatalf("one-way latency = %v, want 425ms", oneWay)
	}
	back := tp.PathLatency(ip.MustParseAddr("10.2.2.117"), ip.MustParseAddr("10.1.3.207"))
	if oneWay+back != 850*time.Millisecond {
		t.Fatalf("model RTT = %v, want 850ms", oneWay+back)
	}
}

func TestGroupLatencySymmetric(t *testing.T) {
	tp := Fig7()
	a, b := ip.MustParseAddr("10.1.1.1"), ip.MustParseAddr("10.3.1.1")
	if tp.GroupLatency(a, b) != tp.GroupLatency(b, a) {
		t.Fatal("group latency must be symmetric")
	}
}

func TestFig7NodeCount(t *testing.T) {
	tp := Fig7()
	if got := tp.TotalNodes(); got != 2750 {
		t.Fatalf("TotalNodes = %d, want 2750 (3×250 + 2×1000)", got)
	}
	if len(tp.Groups()) != 5 {
		t.Fatalf("groups = %d, want 5", len(tp.Groups()))
	}
}

func TestUniformTopology(t *testing.T) {
	tp := Uniform(160, DSL)
	if tp.TotalNodes() != 160 {
		t.Fatalf("TotalNodes = %d", tp.TotalNodes())
	}
	g := tp.Locate(ip.MustParseAddr("10.0.0.5"))
	if g == nil || g.Class.Name != "dsl" {
		t.Fatalf("Locate = %+v", g)
	}
	if tp.PathLatency(ip.MustParseAddr("10.0.0.1"), ip.MustParseAddr("10.0.0.2")) != 60*time.Millisecond {
		t.Fatal("uniform path latency should be 2×30ms access latency")
	}
}

func TestDSLClassMatchesPaper(t *testing.T) {
	if DSL.Down != 2_000_000 || DSL.Up != 128_000 || DSL.Latency != 30*time.Millisecond {
		t.Fatalf("DSL class drifted from the paper: %+v", DSL)
	}
}

// TestSetLatencyTable: a latency is one symmetric table entry, a
// negative one is refused, and Peers counts the other groups a group
// has a nonzero latency with.
func TestSetLatencyTable(t *testing.T) {
	tp := New()
	for i, p := range []string{"10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16"} {
		tp.MustAddGroup(Group{Name: string(rune('a' + i)), Prefix: ip.MustParsePrefix(p), Nodes: 2})
	}
	a, b := ip.MustParseAddr("10.1.0.1"), ip.MustParseAddr("10.2.0.1")
	tp.MustSetLatency("a", "b", 80*time.Millisecond)
	tp.MustSetLatency("a", "a", time.Millisecond) // within a: no peer
	if tp.GroupLatency(a, b) != 80*time.Millisecond || tp.GroupLatency(b, a) != 80*time.Millisecond {
		t.Fatal("declared pair not symmetric")
	}
	if got := tp.GroupLatency(a, ip.MustParseAddr("10.1.0.2")); got != time.Millisecond {
		t.Fatalf("within a = %v, want 1ms", got)
	}
	if got := tp.GroupLatency(a, ip.MustParseAddr("10.9.0.1")); got != 0 {
		t.Fatalf("to an address in no group = %v, want 0", got)
	}
	if got := []int{tp.Peers(tp.Group("a")), tp.Peers(tp.Group("b")), tp.Peers(tp.Group("c"))}; got[0] != 1 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("peers = %v, want [1 1 0]", got)
	}
	if err := tp.SetLatency("a", "c", -time.Second); err == nil {
		t.Fatal("negative latency accepted")
	}
	tp.MustSetLatency("b", "a", 0)
	if tp.GroupLatency(a, b) != 0 || tp.Peers(tp.Group("a")) != 0 {
		t.Fatal("a zero latency should make no peer")
	}
}

// TestGroupLatencyDoesNotAllocate: GroupLatency runs once per message,
// so a declared pair is found without allocating.
func TestGroupLatencyDoesNotAllocate(t *testing.T) {
	tp := Fig7()
	src, dst := ip.MustParseAddr("10.1.3.207"), ip.MustParseAddr("10.2.2.117")
	if allocs := testing.AllocsPerRun(100, func() { tp.GroupLatency(src, dst) }); allocs != 0 {
		t.Fatalf("GroupLatency allocates %v times, want 0", allocs)
	}
}

func TestGroupLookupByName(t *testing.T) {
	tp := Fig7()
	if tp.Group("region-2") == nil {
		t.Fatal("Group lookup failed")
	}
	if tp.Group("nope") != nil {
		t.Fatal("unknown group should be nil")
	}
}
