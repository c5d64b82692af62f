package netem

import (
	"math/rand"
	"testing"

	"repro/internal/ip"
	"repro/internal/sim"
)

// randomTable builds a randomized rule table — duplicate IDs included —
// in two synchronized forms: linear and indexed (incremental
// maintenance path); callers add the bulk-built form with indexedCopy.
// The pipe pool is shared so verdict pipes compare by identity.
func randomTable(rng *rand.Rand, k *sim.Kernel, n int) (lin, idx *RuleSet) {
	lin = NewRuleSet()
	idx = NewRuleSet()
	idx.SetClassifier(ClassifierIndexed) // index maintained rule by rule
	pool := make([]*Pipe, 8)
	for i := range pool {
		pool[i] = NewPipe(k, "pool", PipeConfig{})
	}
	for i := 0; i < n; i++ {
		r := Rule{ID: 100 + rng.Intn(n/4+1)} // dense IDs: many duplicates
		r.Src = randomPrefix(rng)
		r.Dst = randomPrefix(rng)
		switch rng.Intn(10) {
		case 0:
			r.Action = ActionDeny
		case 1:
			r.Action = ActionAccept
		case 2, 3, 4:
			r.Action = ActionPipe
			r.Pipe = pool[rng.Intn(len(pool))]
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

func sameVerdict(a, b Verdict) bool {
	if a.Deny != b.Deny || len(a.Pipes) != len(b.Pipes) {
		return false
	}
	for i := range a.Pipes {
		if a.Pipes[i] != b.Pipes[i] {
			return false
		}
	}
	return true
}

// TestClassifierEquivalenceRandom is the classifier-equivalence
// property: on randomized tables (duplicate IDs, mixed prefix widths,
// all four actions) the linear and indexed classifiers must return
// identical verdicts — pipes in the same order, the same Deny — and
// the two indexed builds (incrementally maintained vs
// bulk-built) must agree exactly, Visited and Cost included.
func TestClassifierEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	k := sim.New(1)
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(120)
		lin, idx := randomTable(rng, k, n)
		bulk := indexedCopy(lin)
		for q := 0; q < 40; q++ {
			src, dst := randomAddr(rng), randomAddr(rng)
			lv := lin.Eval(src, dst)
			iv := idx.Eval(src, dst)
			bv := bulk.Eval(src, dst)
			if !sameVerdict(lv, iv) {
				t.Fatalf("round %d: linear %+v != indexed %+v for %v→%v\ntable:\n%s",
					round, lv, iv, src, dst, dumpRules(lin))
			}
			if !sameVerdict(iv, bv) || iv.Visited != bv.Visited || iv.Cost != bv.Cost {
				t.Fatalf("round %d: incremental %+v != bulk %+v for %v→%v",
					round, iv, bv, src, dst)
			}
			if iv.Visited > lv.Visited {
				t.Fatalf("round %d: indexed visited %d > linear %d", round, iv.Visited, lv.Visited)
			}
		}
		// Churn: remove a few IDs from both tables and re-verify, then
		// cross-check the incrementally maintained index against a
		// fresh bulk build (catches stale index entries).
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
			if !sameVerdict(lv, iv) {
				t.Fatalf("round %d post-churn: linear %+v != indexed %+v", round, lv, iv)
			}
			if !sameVerdict(iv, rv) || iv.Visited != rv.Visited {
				t.Fatalf("round %d post-churn: incremental %+v != rebuilt %+v", round, iv, rv)
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
