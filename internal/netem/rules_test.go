package netem

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
)

var (
	anyNet = ip.Prefix{} // 0.0.0.0/0
	netA   = ip.MustParsePrefix("10.1.0.0/16")
	netB   = ip.MustParsePrefix("10.2.0.0/16")
	hostA  = ip.MustParseAddr("10.1.3.207")
	hostB  = ip.MustParseAddr("10.2.2.117")
)

func TestRuleMatches(t *testing.T) {
	r := Rule{Src: netA, Dst: netB}
	if !r.Matches(hostA, hostB) {
		t.Error("rule should match A→B")
	}
	if r.Matches(hostB, hostA) {
		t.Error("rule should not match B→A")
	}
}

func TestRuleSetOrderedByID(t *testing.T) {
	rs := NewRuleSet()
	rs.Add(Rule{ID: 300, Action: ActionCount})
	rs.Add(Rule{ID: 100, Action: ActionCount})
	rs.Add(Rule{ID: 200, Action: ActionCount})
	ids := []int{}
	for _, r := range rs.Rules() {
		ids = append(ids, r.ID)
	}
	if fmt.Sprint(ids) != "[100 200 300]" {
		t.Fatalf("rule order = %v", ids)
	}
}

func TestEvalCollectsPipesInOrder(t *testing.T) {
	k := sim.New(1)
	p1 := NewPipe(k, "p1", PipeConfig{})
	p2 := NewPipe(k, "p2", PipeConfig{})
	rs := NewRuleSet()
	rs.AddPipe(ip.NewPrefix(hostA, 32), anyNet, p1) // per-node rule
	rs.AddPipe(netA, netB, p2)                      // group latency rule
	v := rs.Eval(hostA, hostB)
	if len(v.Pipes) != 2 || v.Pipes[0] != p1 || v.Pipes[1] != p2 {
		t.Fatalf("pipes = %v", v.Pipes)
	}
	if v.Deny {
		t.Fatal("unexpected deny")
	}
}

func TestEvalVisitsWholeTableWithoutTerminal(t *testing.T) {
	rs := NewRuleSet()
	for i := 0; i < 50; i++ {
		rs.AddCount(netB, netB) // never matches A→B
	}
	v := rs.Eval(hostA, hostB)
	if v.Visited != 50 {
		t.Fatalf("visited = %d, want 50", v.Visited)
	}
}

func TestEvalStopsAtAccept(t *testing.T) {
	rs := NewRuleSet()
	rs.AddCount(netB, netB)
	rs.Add(Rule{ID: rs.NextID(), Action: ActionAccept}) // match-all accept
	rs.AddCount(anyNet, anyNet)
	v := rs.Eval(hostA, hostB)
	if v.Visited != 2 {
		t.Fatalf("visited = %d, want 2 (stop at accept)", v.Visited)
	}
}

func TestEvalDeny(t *testing.T) {
	rs := NewRuleSet()
	rs.Add(Rule{ID: 100, Src: netA, Dst: netB, Action: ActionDeny})
	v := rs.Eval(hostA, hostB)
	if !v.Deny {
		t.Fatal("want deny")
	}
	if rs.Eval(hostB, hostA).Deny {
		t.Fatal("reverse direction should pass")
	}
}

func TestEvalCostLinearInRules(t *testing.T) {
	rs := NewRuleSet()
	rs.PerRuleCost = 50 * time.Nanosecond
	for i := 0; i < 1000; i++ {
		rs.AddCount(netB, netB)
	}
	v := rs.Eval(hostA, hostB)
	if v.Cost != 50*time.Microsecond {
		t.Fatalf("cost = %v, want 50µs (1000 rules × 50ns)", v.Cost)
	}
}

func TestEvalStatsAccumulate(t *testing.T) {
	rs := NewRuleSet()
	rs.AddCount(anyNet, anyNet)
	rs.AddCount(anyNet, anyNet)
	rs.Eval(hostA, hostB)
	rs.Eval(hostB, hostA)
	evals, visited := rs.EvalStats()
	if evals != 2 || visited != 4 {
		t.Fatalf("stats = (%d,%d), want (2,4)", evals, visited)
	}
}

func TestNextID(t *testing.T) {
	rs := NewRuleSet()
	if rs.NextID() != 100 {
		t.Fatalf("empty NextID = %d, want 100", rs.NextID())
	}
	rs.Add(Rule{ID: 100, Action: ActionCount})
	if rs.NextID() != 101 {
		t.Fatalf("NextID = %d, want 101", rs.NextID())
	}
}

func TestRuleString(t *testing.T) {
	k := sim.New(1)
	p := NewPipe(k, "dsl", PipeConfig{})
	r := Rule{ID: 100, Src: netA, Dst: netB, Action: ActionPipe, Pipe: p}
	want := "00100 pipe dsl ip from 10.1.0.0/16 to 10.2.0.0/16"
	if r.String() != want {
		t.Fatalf("String = %q, want %q", r.String(), want)
	}
}

func TestActionString(t *testing.T) {
	cases := map[Action]string{
		ActionPipe: "pipe", ActionAccept: "allow",
		ActionDeny: "deny", ActionCount: "count", Action(99): "Action(99)",
	}
	for a, want := range cases {
		if a.String() != want {
			t.Errorf("Action(%d).String() = %q, want %q", int(a), a.String(), want)
		}
	}
}

// indexedCopy is the bulk-built indexed table: a copy of rs switched to
// the indexed classifier, which builds the index from the whole table
// at once. rs itself is left as it was.
func indexedCopy(rs *RuleSet) *RuleSet {
	c := &RuleSet{rules: append([]Rule(nil), rs.rules...), nextSeq: rs.nextSeq, PerRuleCost: rs.PerRuleCost}
	c.SetClassifier(ClassifierIndexed)
	return c
}

func TestIndexedRuleSetMatchesLinear(t *testing.T) {
	k := sim.New(1)
	rs := NewRuleSet()
	pipes := map[ip.Addr]*Pipe{}
	// 50 per-host /32 rules plus filler.
	base := ip.MustParseAddr("10.0.0.1")
	for i := 0; i < 50; i++ {
		a := base.Add(uint32(i))
		p := NewPipe(k, a.String(), PipeConfig{})
		pipes[a] = p
		rs.AddPipe(ip.NewPrefix(a, 32), anyNet, p)
	}
	ix := indexedCopy(rs)
	for a, want := range pipes {
		lv := rs.Eval(a, hostB)
		iv := ix.Eval(a, hostB)
		if len(lv.Pipes) != 1 || lv.Pipes[0] != want {
			t.Fatalf("linear eval wrong for %v", a)
		}
		if len(iv.Pipes) != 1 || iv.Pipes[0] != want {
			t.Fatalf("indexed eval wrong for %v", a)
		}
	}
}

func TestIndexedRuleSetCheaperThanLinear(t *testing.T) {
	k := sim.New(1)
	rs := NewRuleSet()
	base := ip.MustParseAddr("10.0.0.1")
	var last ip.Addr
	for i := 0; i < 5000; i++ {
		a := base.Add(uint32(i))
		rs.AddPipe(ip.NewPrefix(a, 32), anyNet, NewPipe(k, "p", PipeConfig{}))
		last = a
	}
	ix := indexedCopy(rs)
	lv := rs.Eval(last, hostB)
	iv := ix.Eval(last, hostB)
	if lv.Visited != 5000 {
		t.Fatalf("linear visited = %d, want 5000", lv.Visited)
	}
	// The index buckets by /24, so one bucket (≤256 rules) is scanned
	// instead of the whole 5000-rule table.
	if iv.Visited > 256 {
		t.Fatalf("indexed visited = %d, want one /24 bucket at most", iv.Visited)
	}
	if len(iv.Pipes) != 1 || iv.Pipes[0] != lv.Pipes[0] {
		t.Fatal("indexed verdict differs from linear")
	}
}

// TestIndexedDuplicateIDsPreserveInsertionOrder is the tie-break
// regression: rules sharing an ID evaluate in insertion order in the
// linear table, and every classifier must reproduce that order — the
// old strict-ID merge interleaved duplicate-ID rules arbitrarily.
func TestIndexedDuplicateIDsPreserveInsertionOrder(t *testing.T) {
	k := sim.New(1)
	p1 := NewPipe(k, "p1", PipeConfig{})
	p2 := NewPipe(k, "p2", PipeConfig{})
	p3 := NewPipe(k, "p3", PipeConfig{})
	rs := NewRuleSet()
	// Three rules with the same ID, landing in three different index
	// buckets (src /32 → bySrc, dst /32 → byDst, wide → residual).
	rs.Add(Rule{ID: 100, Src: ip.NewPrefix(hostA, 32), Action: ActionPipe, Pipe: p1})
	rs.Add(Rule{ID: 100, Dst: ip.NewPrefix(hostB, 32), Action: ActionPipe, Pipe: p2})
	rs.Add(Rule{ID: 100, Action: ActionPipe, Pipe: p3})
	lv := rs.Eval(hostA, hostB)
	want := []*Pipe{p1, p2, p3}
	if len(lv.Pipes) != 3 || lv.Pipes[0] != p1 || lv.Pipes[1] != p2 || lv.Pipes[2] != p3 {
		t.Fatalf("linear pipes = %v, want %v", lv.Pipes, want)
	}
	iv := indexedCopy(rs).Eval(hostA, hostB)
	if len(iv.Pipes) != 3 || iv.Pipes[0] != p1 || iv.Pipes[1] != p2 || iv.Pipes[2] != p3 {
		t.Fatalf("indexed pipes = %v, want %v (insertion order lost)", iv.Pipes, want)
	}
	// Terminal actions among duplicates must fire in insertion order
	// too: a deny inserted before a pipe with the same ID wins.
	rs2 := NewRuleSet()
	rs2.Add(Rule{ID: 100, Src: ip.NewPrefix(hostA, 32), Action: ActionDeny})
	rs2.Add(Rule{ID: 100, Action: ActionPipe, Pipe: p1})
	iv2 := indexedCopy(rs2).Eval(hostA, hostB)
	if !iv2.Deny || len(iv2.Pipes) != 0 {
		t.Fatalf("indexed verdict = %+v, want deny before same-ID pipe", iv2)
	}
}

// TestIndexedEvalStats: the indexed classifier accumulates EvalStats
// like the linear one (it previously never updated them).
func TestIndexedEvalStats(t *testing.T) {
	rs := NewRuleSet()
	rs.AddCount(ip.NewPrefix(hostA, 32), anyNet)
	rs.AddCount(anyNet, anyNet)
	ix := indexedCopy(rs)
	ix.Eval(hostA, hostB)
	ix.Eval(hostB, hostA)
	evals, visited := ix.EvalStats()
	if evals != 2 {
		t.Fatalf("evals = %d, want 2", evals)
	}
	if visited == 0 {
		t.Fatal("visited never accumulated")
	}
	// And through the RuleSet-integrated classifier as well.
	rs.SetClassifier(ClassifierIndexed)
	rs.Eval(hostA, hostB)
	evals, _ = rs.EvalStats()
	if evals != 1 {
		t.Fatalf("ruleset evals = %d, want 1", evals)
	}
}

// TestRemoveMaintainsIndex: Remove deletes every rule with the ID and
// keeps the incremental index in sync with the linear table.
func TestRemoveMaintainsIndex(t *testing.T) {
	rs := NewRuleSet()
	rs.SetClassifier(ClassifierIndexed)
	rs.Add(Rule{ID: 100, Src: ip.NewPrefix(hostA, 32), Action: ActionDeny})
	rs.Add(Rule{ID: 100, Dst: ip.NewPrefix(hostB, 32), Action: ActionDeny})
	rs.Add(Rule{ID: 200, Action: ActionCount})
	if !rs.Eval(hostA, hostB).Deny {
		t.Fatal("deny rules not active")
	}
	if n := rs.Remove(100); n != 2 {
		t.Fatalf("Remove(100) = %d, want 2", n)
	}
	if rs.Len() != 1 {
		t.Fatalf("len = %d, want 1", rs.Len())
	}
	if v := rs.Eval(hostA, hostB); v.Deny {
		t.Fatal("deny still active after Remove (stale index)")
	}
	if n := rs.Remove(100); n != 0 {
		t.Fatalf("second Remove(100) = %d, want 0", n)
	}
}

// TestAddCopiesMatchesRepeatedAdd: the single-splice batch insert is
// indistinguishable from n individual Adds — table order, verdicts
// under both classifiers, and batch retirement via Remove.
func TestAddCopiesMatchesRepeatedAdd(t *testing.T) {
	build := func(batch bool) *RuleSet {
		rs := NewRuleSet()
		rs.SetClassifier(ClassifierIndexed)
		rs.Add(Rule{ID: 100, Src: ip.NewPrefix(hostA, 32), Action: ActionCount})
		rs.Add(Rule{ID: 300, Action: ActionCount})
		r := Rule{ID: 200, Src: ip.NewPrefix(hostA, 32), Dst: netB, Action: ActionCount}
		if batch {
			rs.AddCopies(r, 50)
		} else {
			for i := 0; i < 50; i++ {
				rs.Add(r)
			}
		}
		return rs
	}
	one, many := build(false), build(true)
	if one.Len() != many.Len() {
		t.Fatalf("len %d vs %d", one.Len(), many.Len())
	}
	for i := range one.Rules() {
		if one.Rules()[i].String() != many.Rules()[i].String() {
			t.Fatalf("order diverges at %d: %v vs %v", i, one.Rules()[i], many.Rules()[i])
		}
	}
	ov, mv := one.Eval(hostA, hostB), many.Eval(hostA, hostB)
	if ov.Visited != mv.Visited || ov.Deny != mv.Deny {
		t.Fatalf("verdicts diverge: %+v vs %+v", ov, mv)
	}
	if n := many.Remove(200); n != 50 {
		t.Fatalf("Remove retired %d of the batch, want 50", n)
	}
	if v := many.Eval(hostA, hostB); v.Visited != 2 {
		t.Fatalf("visited = %d after batch removal, want 2 (stale index)", v.Visited)
	}
}

// TestRemoveHandlePinsInstance: a handle removes exactly the rule it
// was issued for — rules that merely reuse the ID afterwards survive,
// and a spent handle is a no-op (the deny-prefix auto-revert contract).
func TestRemoveHandlePinsInstance(t *testing.T) {
	rs := NewRuleSet()
	rs.SetClassifier(ClassifierIndexed)
	h := rs.AddDeny(ip.NewPrefix(hostA, 32), anyNet) // auto-ID 100
	// The ID is reused by an unrelated author rule while the deny is up.
	rs.Add(Rule{ID: h.ID, Src: netA, Dst: netB, Action: ActionCount})
	if !rs.RemoveHandle(h) {
		t.Fatal("handle did not remove its rule")
	}
	if rs.Len() != 1 {
		t.Fatalf("len = %d, want 1 (the reused-ID rule must survive)", rs.Len())
	}
	if rs.Eval(hostA, hostB).Deny {
		t.Fatal("deny still active")
	}
	if v := rs.Eval(hostA, hostB); v.Visited != 1 {
		t.Fatalf("visited = %d, want the surviving count rule only", v.Visited)
	}
	if rs.RemoveHandle(h) {
		t.Fatal("spent handle removed something")
	}
}

// TestSetClassifierSwitchesAlgorithm: flipping the classifier changes
// Visited (the whole point) but never the verdict.
func TestSetClassifierSwitchesAlgorithm(t *testing.T) {
	rs := NewRuleSet()
	base := ip.MustParseAddr("172.16.0.1")
	for i := 0; i < 1000; i++ {
		rs.AddCount(ip.NewPrefix(base.Add(uint32(i)), 32), anyNet)
	}
	rs.AddDeny(ip.NewPrefix(hostA, 32), anyNet)
	lin := rs.Eval(hostA, hostB)
	if !lin.Deny || lin.Visited != 1001 {
		t.Fatalf("linear verdict = %+v", lin)
	}
	rs.SetClassifier(ClassifierIndexed)
	idx := rs.Eval(hostA, hostB)
	if !idx.Deny {
		t.Fatal("indexed classifier lost the deny")
	}
	if idx.Visited >= lin.Visited {
		t.Fatalf("indexed visited %d, want far fewer than %d", idx.Visited, lin.Visited)
	}
	rs.SetClassifier(ClassifierLinear)
	if again := rs.Eval(hostA, hostB); again.Visited != lin.Visited {
		t.Fatalf("back to linear: visited = %d, want %d", again.Visited, lin.Visited)
	}
}

func TestParseClassifier(t *testing.T) {
	for name, want := range map[string]Classifier{"linear": ClassifierLinear, "indexed": ClassifierIndexed} {
		got, err := ParseClassifier(name)
		if err != nil || got != want {
			t.Errorf("ParseClassifier(%q) = %v, %v", name, got, err)
		}
		if got.String() != name {
			t.Errorf("String() = %q, want %q", got.String(), name)
		}
	}
	if _, err := ParseClassifier("hash"); err == nil {
		t.Error("ParseClassifier accepted unknown name")
	}
}

func TestIndexedRuleSetResidualWideRules(t *testing.T) {
	k := sim.New(1)
	rs := NewRuleSet()
	wide := NewPipe(k, "wide", PipeConfig{})
	rs.AddPipe(netA, netB, wide) // /16 rules go to the residual table
	ix := indexedCopy(rs)
	v := ix.Eval(hostA, hostB)
	if len(v.Pipes) != 1 || v.Pipes[0] != wide {
		t.Fatalf("residual rule not applied: %v", v.Pipes)
	}
}
