package netem

import (
	"math/rand"
	"testing"

	"repro/internal/ip"
)

// randomTable builds a randomized rule table — duplicate IDs included —
// in two synchronized forms: linear and indexed (classifier set before
// the first rule); callers add a copy indexed afresh with indexedCopy.
// Dense IDs put several same-ID rules in different index buckets, and
// allow and deny are equally likely, so visiting same-ID rules out of
// insertion order flips Deny.
func randomTable(rng *rand.Rand, n int) (lin, idx *RuleSet) {
	lin = NewRuleSet()
	idx = NewRuleSet()
	idx.SetClassifier(ClassifierIndexed) // index derived at the first Eval
	for i := 0; i < n; i++ {
		r := Rule{ID: 100 + rng.Intn(n/4+1)} // dense IDs: many duplicates
		r.Src = randomPrefix(rng)
		r.Dst = randomPrefix(rng)
		switch rng.Intn(10) {
		case 0, 1:
			r.Action = ActionDeny
		case 2, 3:
			r.Action = ActionAccept
		default:
			r.Action = ActionCount
		}
		lin.Add(r)
		idx.Add(r)
	}
	return lin, idx
}

// randomPrefix draws from the address shapes real tables mix: wide
// wildcards, group /16s, subnet /24s and host /32s, all inside a small
// space so queries actually hit rules.
func randomPrefix(rng *rand.Rand) ip.Prefix {
	base := ip.MustParseAddr("10.0.0.0").Add(uint32(rng.Intn(4)<<16 | rng.Intn(4)<<8 | rng.Intn(8)))
	switch rng.Intn(5) {
	case 0:
		return ip.Prefix{} // 0.0.0.0/0
	case 1:
		return ip.NewPrefix(base, 16)
	case 2:
		return ip.NewPrefix(base, 24)
	default:
		return ip.NewPrefix(base, 32)
	}
}

func randomAddr(rng *rand.Rand) ip.Addr {
	return ip.MustParseAddr("10.0.0.0").Add(uint32(rng.Intn(4)<<16 | rng.Intn(4)<<8 | rng.Intn(8)))
}

// TestClassifierEquivalenceRandom is the classifier-equivalence
// property: on randomized tables (duplicate IDs, mixed prefix widths,
// all three actions) the linear and indexed classifiers must return
// the same Deny, and the indexed table must agree exactly with a copy
// indexed afresh, Visited and Cost included — also after Removes, when
// it must not answer from the index it built before them.
func TestClassifierEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(120)
		lin, idx := randomTable(rng, n)
		bulk := indexedCopy(lin)
		for q := 0; q < 40; q++ {
			src, dst := randomAddr(rng), randomAddr(rng)
			lv := lin.Eval(src, dst)
			iv := idx.Eval(src, dst)
			bv := bulk.Eval(src, dst)
			if lv.Deny != iv.Deny {
				t.Fatalf("round %d: linear %+v != indexed %+v for %v→%v\ntable:\n%s",
					round, lv, iv, src, dst, dumpRules(lin))
			}
			if iv != bv {
				t.Fatalf("round %d: indexed %+v != fresh copy %+v for %v→%v",
					round, iv, bv, src, dst)
			}
			if iv.Visited > lv.Visited {
				t.Fatalf("round %d: indexed visited %d > linear %d", round, iv.Visited, lv.Visited)
			}
		}
		// Churn: remove a few IDs from both tables and re-verify, then
		// cross-check the indexed table against a fresh copy (catches
		// an index that outlived the removal).
		for del := 0; del < 3; del++ {
			id := 100 + rng.Intn(n/4+1)
			if got, want := idx.Remove(id), lin.Remove(id); got != want {
				t.Fatalf("round %d: Remove(%d) removed %d indexed vs %d linear", round, id, got, want)
			}
		}
		rebuilt := indexedCopy(lin)
		for q := 0; q < 20; q++ {
			src, dst := randomAddr(rng), randomAddr(rng)
			lv := lin.Eval(src, dst)
			iv := idx.Eval(src, dst)
			rv := rebuilt.Eval(src, dst)
			if lv.Deny != iv.Deny {
				t.Fatalf("round %d post-churn: linear %+v != indexed %+v", round, lv, iv)
			}
			if iv != rv {
				t.Fatalf("round %d post-churn: indexed %+v != rebuilt %+v", round, iv, rv)
			}
		}
	}
}

func dumpRules(rs *RuleSet) string {
	out := ""
	for i := range rs.Rules() {
		out += rs.Rules()[i].String() + "\n"
	}
	return out
}
