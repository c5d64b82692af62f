package netem

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/ip"
)

// Action tells the firewall what to do with a matching packet.
type Action int

const (
	// ActionCount matches without effect (a no-op filler rule; the paper
	// pads tables with these to measure evaluation cost, Fig 6). It is
	// the zero Action, so a rule that names none changes no verdict.
	ActionCount Action = iota
	// ActionAccept terminates evaluation and lets the packet through.
	ActionAccept
	// ActionDeny terminates evaluation and drops the packet.
	ActionDeny
)

// String names the action like an ipfw listing would.
func (a Action) String() string {
	switch a {
	case ActionAccept:
		return "allow"
	case ActionDeny:
		return "deny"
	case ActionCount:
		return "count"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Classifier selects the packet-classification algorithm a RuleSet
// runs. The linear scan is the faithful IPFW model and the source of
// the paper's Fig 6 artifact; the hash-indexed classifier is what a
// constant-time firewall would have bought ("it is not possible to
// evaluate the rules in a hierarchical way, or with a hash table").
// Both return identical verdicts (the first matching allow or deny in
// (ID, insertion) order decides); only the number of rules *visited* —
// and therefore the evaluation cost charged to virtual time — differs.
type Classifier int

const (
	// ClassifierLinear is the IPFW-faithful ordered linear scan.
	ClassifierLinear Classifier = iota
	// ClassifierIndexed fronts the table with hash indexes over the
	// source and destination /24, leaving a short residual linear list.
	ClassifierIndexed
)

// String names the classifier for flags and sweep labels.
func (c Classifier) String() string {
	switch c {
	case ClassifierLinear:
		return "linear"
	case ClassifierIndexed:
		return "indexed"
	default:
		return fmt.Sprintf("Classifier(%d)", int(c))
	}
}

// ParseClassifier parses a classifier name as used by command-line
// flags and scenario specs.
func ParseClassifier(s string) (Classifier, error) {
	switch s {
	case "linear":
		return ClassifierLinear, nil
	case "indexed":
		return ClassifierIndexed, nil
	default:
		return 0, fmt.Errorf("netem: unknown classifier %q (want linear or indexed)", s)
	}
}

// Rule is one IPFW-style firewall rule: match on source and destination
// prefixes, then apply an action. Src/Dst zero values ("0.0.0.0/0")
// match everything.
type Rule struct {
	ID     int // rule number; evaluation order is ascending ID
	Src    ip.Prefix
	Dst    ip.Prefix
	Action Action

	// seq is the insertion sequence number RuleSet.Add assigns: rules
	// sharing an ID evaluate in insertion order, and (ID, seq) is the
	// total evaluation order every classifier must reproduce.
	seq uint64
}

// Matches reports whether the rule applies to a src→dst packet.
func (r *Rule) Matches(src, dst ip.Addr) bool {
	return r.Src.Contains(src) && r.Dst.Contains(dst)
}

// String formats the rule like an ipfw listing line.
func (r *Rule) String() string {
	return fmt.Sprintf("%05d %s ip from %v to %v", r.ID, r.Action, r.Src, r.Dst)
}

// Verdict is the outcome of evaluating a rule table for one packet.
type Verdict struct {
	// Deny is true when an ActionDeny rule matched.
	Deny bool
	// Visited is the number of rules examined; evaluation cost is
	// Visited × DefaultPerRuleCost. This linear cost is the paper's
	// Fig 6.
	Visited int
	// Cost is the evaluation time to charge to the packet.
	Cost time.Duration
}

// DefaultPerRuleCost is the virtual CPU time charged per rule visited.
// Calibrated against the paper's Fig 6: ~50000 rules raise a ping RTT
// from ~0.2 ms to ~5 ms, i.e. about 50 ns per rule per traversal with
// two traversals per round trip.
const DefaultPerRuleCost = 48 * time.Nanosecond

// RuleSet is an IPFW-style firewall rule table. Rules are kept sorted
// by (ID, insertion order). Evaluation runs the selected Classifier:
// the default linear scan is real work, so Go benchmarks over a
// RuleSet show the same linear artifact the paper measured, and Cost
// additionally charges the scan to virtual time; the indexed
// classifier derives its hash index from the table at the first Eval
// after a change (tables change only at timeline events, so a run
// builds it a handful of times).
type RuleSet struct {
	rules      []Rule
	nextSeq    uint64
	classifier Classifier
	ix         *ruleIndex // derived from rules by Eval; nil after any change
	evals      uint64
	visited    uint64
}

// NewRuleSet returns an empty rule table under the linear classifier.
func NewRuleSet() *RuleSet {
	return &RuleSet{}
}

// SetClassifier switches the evaluation algorithm.
func (rs *RuleSet) SetClassifier(c Classifier) {
	rs.classifier = c
	rs.ix = nil
}

// Classifier returns the active classification algorithm.
func (rs *RuleSet) Classifier() Classifier { return rs.classifier }

// Add inserts a rule, keeping the table sorted by ID. Adding a rule with
// an existing ID places it after the existing ones with that ID.
func (rs *RuleSet) Add(r Rule) { rs.AddCopies(r, 1) }

// AddCopies inserts n copies of r — sharing its ID, consecutive
// insertion seqs — with one table splice instead of n O(table) Adds,
// so a 100k-rule filler batch (scenario add-rule events cap there)
// stays linear.
func (rs *RuleSet) AddCopies(r Rule, n int) {
	if n <= 0 {
		return
	}
	i := sort.Search(len(rs.rules), func(i int) bool { return rs.rules[i].ID > r.ID })
	rs.rules = append(rs.rules, make([]Rule, n)...)
	copy(rs.rules[i+n:], rs.rules[i:len(rs.rules)-n])
	for j := 0; j < n; j++ {
		r.seq = rs.nextSeq
		rs.nextSeq++
		rs.rules[i+j] = r
	}
	rs.ix = nil
}

// Remove deletes every rule with the given ID (like `ipfw delete`) and
// returns how many were removed.
func (rs *RuleSet) Remove(id int) int {
	lo := sort.Search(len(rs.rules), func(i int) bool { return rs.rules[i].ID >= id })
	hi := sort.Search(len(rs.rules), func(i int) bool { return rs.rules[i].ID > id })
	if lo == hi {
		return 0
	}
	rs.rules = append(rs.rules[:lo], rs.rules[hi:]...)
	rs.ix = nil
	return hi - lo
}

// AddCount appends a filler counting rule with the next free ID.
func (rs *RuleSet) AddCount(src, dst ip.Prefix) {
	rs.Add(Rule{ID: rs.NextID(), Src: src, Dst: dst, Action: ActionCount})
}

// RuleHandle pins one exact rule instance — the (ID, insertion)
// identity — so a policy revert can remove precisely the rule it
// added even if the ID has since been reused by other rules.
type RuleHandle struct {
	ID  int
	seq uint64
}

// AddHandle inserts r like Add and returns a handle pinning exactly
// this rule instance (for RemoveHandle).
func (rs *RuleSet) AddHandle(r Rule) RuleHandle {
	rs.Add(r)
	return RuleHandle{ID: r.ID, seq: rs.nextSeq - 1}
}

// RemoveHandle removes exactly the rule the handle pins and reports
// whether it was still present. Unlike Remove, rules that merely share
// the ID are left alone.
func (rs *RuleSet) RemoveHandle(h RuleHandle) bool {
	lo := sort.Search(len(rs.rules), func(i int) bool { return rs.rules[i].ID >= h.ID })
	hi := sort.Search(len(rs.rules), func(i int) bool { return rs.rules[i].ID > h.ID })
	for i := lo; i < hi; i++ {
		if rs.rules[i].seq == h.seq {
			rs.rules = append(rs.rules[:i], rs.rules[i+1:]...)
			rs.ix = nil
			return true
		}
	}
	return false
}

// NextID returns one more than the highest rule ID (or 100, IPFW's
// customary first rule number, for an empty table).
func (rs *RuleSet) NextID() int {
	if len(rs.rules) == 0 {
		return 100
	}
	return rs.rules[len(rs.rules)-1].ID + 1
}

// Len returns the number of rules in the table.
func (rs *RuleSet) Len() int { return len(rs.rules) }

// Eval classifies a src→dst packet with the active classifier,
// stopping at the first matching Accept or Deny. Under the linear
// classifier this is the ordered scan the paper identifies as P2PLab's
// main scalability limit ("it is not possible to evaluate the rules in
// a hierarchical way, or with a hash table");
// under the indexed classifier only the candidate rules whose hash
// buckets can match are merged, in the same (ID, insertion) order, so
// the verdict is identical and only Visited (and Cost) shrink.
func (rs *RuleSet) Eval(src, dst ip.Addr) Verdict {
	var v Verdict
	if rs.classifier == ClassifierIndexed {
		if rs.ix == nil {
			rs.ix = newRuleIndex(rs.rules)
		}
		rs.ix.eval(rs.rules, src, dst, &v)
	} else {
		evalLinear(rs.rules, src, dst, &v)
	}
	v.Cost = time.Duration(v.Visited) * DefaultPerRuleCost
	rs.evals++
	rs.visited += uint64(v.Visited)
	return v
}

// EvalStats reports how many evaluations ran and the total rules visited.
func (rs *RuleSet) EvalStats() (evals, visited uint64) { return rs.evals, rs.visited }

// evalLinear is the ordered scan: rules must be sorted in evaluation
// order. It fills Deny and Visited; the caller prices Cost.
func evalLinear(rules []Rule, src, dst ip.Addr, v *Verdict) {
	for i := range rules {
		v.Visited++
		if rules[i].Matches(src, dst) && v.decide(rules[i].Action) {
			return
		}
	}
}

// decide applies a matched rule's action to v — the step both
// classifiers share — and reports whether it ends the evaluation:
// allow and deny do, count matches without effect.
func (v *Verdict) decide(a Action) (stop bool) {
	switch a {
	case ActionAccept:
		return true
	case ActionDeny:
		v.Deny = true
		return true
	}
	return false
}

// ruleIndex is the hash-indexed classifier's data structure: hash
// indexes over the source /24 and destination /24 in front of a short
// residual list, each holding positions in the sorted table. Position
// order is evaluation order, so a three-way merge by position
// reproduces the linear scan's exact order — including tables with
// duplicate rule IDs, where insertion order is the tie-break.
type ruleIndex struct {
	bySrc    map[ip.Prefix][]int32 // rules with src /24 or longer
	byDst    map[ip.Prefix][]int32 // wide-src rules with dst /24 or longer
	residual []int32               // wide src and wide dst
}

// newRuleIndex buckets a table in one pass in evaluation order, so
// every bucket list comes out already sorted.
func newRuleIndex(rules []Rule) *ruleIndex {
	ix := &ruleIndex{
		bySrc: make(map[ip.Prefix][]int32),
		byDst: make(map[ip.Prefix][]int32),
	}
	for i := range rules {
		r := &rules[i]
		switch {
		case r.Src.Bits() >= 24:
			k := ip.NewPrefix(r.Src.Addr(), 24)
			ix.bySrc[k] = append(ix.bySrc[k], int32(i))
		case r.Dst.Bits() >= 24:
			k := ip.NewPrefix(r.Dst.Addr(), 24)
			ix.byDst[k] = append(ix.byDst[k], int32(i))
		default:
			ix.residual = append(ix.residual, int32(i))
		}
	}
	return ix
}

// eval merges the candidate positions from the two hash buckets and the
// residual list in ascending order — exactly the linear table's
// evaluation order restricted to rules that can match this packet's
// /24s — and visits each rule of the table the index was built from
// exactly as evalLinear does.
func (ix *ruleIndex) eval(rules []Rule, src, dst ip.Addr, v *Verdict) {
	lists := [3][]int32{ix.bySrc[ip.NewPrefix(src, 24)], ix.byDst[ip.NewPrefix(dst, 24)], ix.residual}
	for {
		best := -1
		for l := range lists {
			if len(lists[l]) > 0 && (best < 0 || lists[l][0] < lists[best][0]) {
				best = l
			}
		}
		if best < 0 {
			return
		}
		r := &rules[lists[best][0]]
		lists[best] = lists[best][1:]
		v.Visited++
		if r.Matches(src, dst) && v.decide(r.Action) {
			return
		}
	}
}

// PadFiller appends n never-matching counting rules with distinct /32
// sources (172.16.0.1+i) — the Fig 6 padding shape, shared by every
// driver that measures table-size cost: the linear scan visits every
// filler rule while the indexed classifier buckets them all away from
// 10/8 traffic.
func PadFiller(rs *RuleSet, n int) {
	base := ip.MustParseAddr("172.16.0.1")
	for i := 0; i < n; i++ {
		rs.AddCount(ip.NewPrefix(base.Add(uint32(i)), 32), ip.Prefix{})
	}
}

// NewFillerTable returns a fresh table under the given classifier
// padded with n filler rules (see PadFiller).
func NewFillerTable(n int, classifier Classifier) *RuleSet {
	rs := NewRuleSet()
	rs.SetClassifier(classifier)
	PadFiller(rs, n)
	return rs
}
