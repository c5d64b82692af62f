package netem

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ip"
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

// TestEvalFirstTerminalInOrder: evaluation walks the table in rule
// order, a count rule matches without ending it, and the first
// matching allow or deny decides.
func TestEvalFirstTerminalInOrder(t *testing.T) {
	rs := NewRuleSet()
	rs.AddCount(ip.NewPrefix(hostA, 32), anyNet)                              // per-node rule
	rs.Add(Rule{ID: rs.NextID(), Src: netA, Dst: netB, Action: ActionAccept}) // group rule
	rs.AddDeny(anyNet, anyNet)
	if v := rs.Eval(hostA, hostB); v.Deny || v.Visited != 2 {
		t.Fatalf("A→B verdict = %+v, want allowed at the second rule", v)
	}
	if v := rs.Eval(hostB, hostA); !v.Deny || v.Visited != 3 {
		t.Fatalf("B→A verdict = %+v, want denied at the third rule", v)
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
	for i := 0; i < 1000; i++ {
		rs.AddCount(netB, netB)
	}
	v := rs.Eval(hostA, hostB)
	if v.Cost != 48*time.Microsecond {
		t.Fatalf("cost = %v, want 48µs (1000 rules × 48ns)", v.Cost)
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
	r := Rule{ID: 100, Src: netA, Dst: netB, Action: ActionDeny}
	want := "00100 deny ip from 10.1.0.0/16 to 10.2.0.0/16"
	if r.String() != want {
		t.Fatalf("String = %q, want %q", r.String(), want)
	}
}

func TestActionString(t *testing.T) {
	cases := map[Action]string{
		ActionAccept: "allow", ActionDeny: "deny",
		ActionCount: "count", Action(99): "Action(99)",
	}
	for a, want := range cases {
		if a.String() != want {
			t.Errorf("Action(%d).String() = %q, want %q", int(a), a.String(), want)
		}
	}
}

// indexedCopy is a copy of rs switched to the indexed classifier, so its
// first Eval builds an index from the whole table as it stands. rs
// itself is left as it was.
func indexedCopy(rs *RuleSet) *RuleSet {
	c := &RuleSet{rules: append([]Rule(nil), rs.rules...), nextSeq: rs.nextSeq}
	c.SetClassifier(ClassifierIndexed)
	return c
}

func TestIndexedRuleSetMatchesLinear(t *testing.T) {
	rs := NewRuleSet()
	deny := map[ip.Addr]bool{}
	// 50 per-host /32 rules, allow and deny alternating.
	base := ip.MustParseAddr("10.0.0.1")
	for i := 0; i < 50; i++ {
		a := base.Add(uint32(i))
		action := ActionAccept
		if i%2 == 1 {
			action = ActionDeny
		}
		deny[a] = action == ActionDeny
		rs.Add(Rule{ID: rs.NextID(), Src: ip.NewPrefix(a, 32), Action: action})
	}
	ix := indexedCopy(rs)
	for a, want := range deny {
		if lv := rs.Eval(a, hostB); lv.Deny != want {
			t.Fatalf("linear eval wrong for %v", a)
		}
		if iv := ix.Eval(a, hostB); iv.Deny != want {
			t.Fatalf("indexed eval wrong for %v", a)
		}
	}
}

func TestIndexedRuleSetCheaperThanLinear(t *testing.T) {
	rs := NewRuleSet()
	base := ip.MustParseAddr("10.0.0.1")
	for i := 0; i < 4999; i++ {
		rs.AddCount(ip.NewPrefix(base.Add(uint32(i)), 32), anyNet)
	}
	last := base.Add(4999)
	rs.AddDeny(ip.NewPrefix(last, 32), anyNet)
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
	if !lv.Deny || !iv.Deny {
		t.Fatalf("verdicts linear %+v, indexed %+v; want both denied", lv, iv)
	}
}

// TestIndexedDuplicateIDsPreserveInsertionOrder is the tie-break
// regression: rules sharing an ID evaluate in insertion order in the
// linear table, and every classifier must reproduce that order — the
// old strict-ID merge interleaved duplicate-ID rules arbitrarily. Each
// table holds three rules with one ID, one in each index bucket (src
// /32 → bySrc, dst /32 → byDst, wide → residual), and mixes allow and
// deny so that visiting them in any other order flips the verdict.
func TestIndexedDuplicateIDsPreserveInsertionOrder(t *testing.T) {
	src := ip.NewPrefix(hostA, 32)
	dst := ip.NewPrefix(hostB, 32)
	for _, c := range []struct {
		name    string
		rules   []Rule
		deny    bool
		visited int // by the indexed classifier; the linear one agrees here
	}{
		{"bySrc deny first", []Rule{
			{ID: 100, Src: src, Action: ActionDeny},
			{ID: 100, Dst: dst, Action: ActionAccept},
			{ID: 100, Action: ActionAccept},
		}, true, 1},
		{"byDst deny after a bySrc count", []Rule{
			{ID: 100, Src: src, Action: ActionCount},
			{ID: 100, Dst: dst, Action: ActionDeny},
			{ID: 100, Action: ActionAccept},
		}, true, 2},
		{"residual allow before later buckets", []Rule{
			{ID: 100, Action: ActionCount},
			{ID: 100, Dst: dst, Action: ActionAccept},
			{ID: 100, Src: src, Action: ActionDeny},
		}, false, 2},
		{"residual deny inserted first", []Rule{
			{ID: 100, Action: ActionDeny},
			{ID: 100, Src: src, Action: ActionAccept},
			{ID: 100, Dst: dst, Action: ActionAccept},
		}, true, 1},
	} {
		rs := NewRuleSet()
		indexedFirst := NewRuleSet()
		indexedFirst.SetClassifier(ClassifierIndexed)
		for _, r := range c.rules {
			rs.Add(r)
			indexedFirst.Add(r)
		}
		for name, v := range map[string]Verdict{
			"linear":                 rs.Eval(hostA, hostB),
			"indexed":                indexedCopy(rs).Eval(hostA, hostB),
			"indexed from the start": indexedFirst.Eval(hostA, hostB),
		} {
			if v.Deny != c.deny || v.Visited != c.visited {
				t.Errorf("%s: %s verdict = %+v, want deny %v after %d visits (insertion order lost)",
					c.name, name, v, c.deny, c.visited)
			}
		}
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

// TestRemoveMaintainsIndex: Remove deletes every rule with the ID, and
// the next Eval answers from the table as it is now, not from the index
// built before the removal.
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
	rs := NewRuleSet()
	rs.AddDeny(netA, netB) // /16 rules go to the residual table
	ix := indexedCopy(rs)
	if v := ix.Eval(hostA, hostB); !v.Deny {
		t.Fatalf("residual rule not applied: %+v", v)
	}
}

// BenchmarkRuleEval is the classifier comparison (DESIGN.md decision
// 7): one packet classification against a 50k-rule table, under the
// linear scan and under the hash index (built by the first Eval). The
// ~1000× gap is what the Classifier option buys on the emulation hot
// path.
func BenchmarkRuleEval(b *testing.B) {
	src := ip.MustParseAddr("10.0.0.1")
	dst := ip.MustParseAddr("10.0.0.2")
	const rules = 50000
	for _, classifier := range []Classifier{ClassifierLinear, ClassifierIndexed} {
		rs := NewFillerTable(rules, classifier)
		rs.AddCount(ip.NewPrefix(src, 32), ip.Prefix{})
		b.Run(classifier.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := rs.Eval(src, dst)
				if v.Deny {
					b.Fatal("unexpected verdict")
				}
			}
		})
	}
}
