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
	// ActionPipe sends the packet through the rule's pipe and continues
	// evaluating subsequent rules (Dummynet one-pass mode, as P2PLab
	// uses it: several latency pipes can stack on one path).
	ActionPipe Action = iota
	// ActionAccept terminates evaluation and lets the packet through.
	ActionAccept
	// ActionDeny terminates evaluation and drops the packet.
	ActionDeny
	// ActionCount matches without effect (a no-op filler rule; the paper
	// pads tables with these to measure evaluation cost, Fig 6).
	ActionCount
)

// String names the action like an ipfw listing would.
func (a Action) String() string {
	switch a {
	case ActionPipe:
		return "pipe"
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
// Both return identical verdicts (pipes in rule order, first terminal
// action wins); only the number of rules *visited* — and therefore the
// evaluation cost charged to virtual time — differs.
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
	Pipe   *Pipe // used by ActionPipe

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
	target := r.Action.String()
	if r.Action == ActionPipe && r.Pipe != nil {
		target = "pipe " + r.Pipe.Name()
	}
	return fmt.Sprintf("%05d %s ip from %v to %v", r.ID, target, r.Src, r.Dst)
}

// before reports whether r evaluates before s: ascending ID, insertion
// order within an ID.
func (r *Rule) before(s *Rule) bool {
	if r.ID != s.ID {
		return r.ID < s.ID
	}
	return r.seq < s.seq
}

// Verdict is the outcome of evaluating a rule table for one packet.
type Verdict struct {
	// Pipes are the matched ActionPipe rules' pipes, in rule order; the
	// packet traverses all of them.
	Pipes []*Pipe
	// Deny is true when an ActionDeny rule matched.
	Deny bool
	// Visited is the number of rules examined; evaluation cost is
	// Visited × PerRuleCost. This linear cost is the paper's Fig 6.
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
// classifier keeps a hash index maintained incrementally on Add and
// Remove, so runtime policy churn stays cheap.
type RuleSet struct {
	rules       []Rule
	nextSeq     uint64
	PerRuleCost time.Duration
	classifier  Classifier
	ix          *ruleIndex // non-nil iff classifier == ClassifierIndexed
	evals       uint64
	visited     uint64
}

// NewRuleSet returns an empty rule table with the default per-rule cost
// and the linear classifier.
func NewRuleSet() *RuleSet {
	return &RuleSet{PerRuleCost: DefaultPerRuleCost}
}

// SetClassifier switches the evaluation algorithm. Switching to the
// indexed classifier builds the index from the current table; later
// Add and Remove calls maintain it incrementally.
func (rs *RuleSet) SetClassifier(c Classifier) {
	rs.classifier = c
	if c == ClassifierIndexed {
		rs.ix = newRuleIndex()
		for i := range rs.rules {
			rs.ix.insert(rs.rules[i])
		}
	} else {
		rs.ix = nil
	}
}

// Classifier returns the active classification algorithm.
func (rs *RuleSet) Classifier() Classifier { return rs.classifier }

// Add inserts a rule, keeping the table sorted by ID. Adding a rule with
// an existing ID places it after the existing ones with that ID.
func (rs *RuleSet) Add(r Rule) {
	r.seq = rs.nextSeq
	rs.nextSeq++
	i := sort.Search(len(rs.rules), func(i int) bool { return rs.rules[i].ID > r.ID })
	rs.rules = append(rs.rules, Rule{})
	copy(rs.rules[i+1:], rs.rules[i:])
	rs.rules[i] = r
	if rs.ix != nil {
		rs.ix.insert(r)
	}
}

// AddCopies inserts n copies of r — sharing its ID, consecutive
// insertion seqs — with one table splice instead of n O(table) Adds,
// so a 100k-rule filler batch (scenario add-rule events cap there)
// stays linear. The indexed classifier's bucket is likewise spliced
// once.
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
	if rs.ix != nil {
		rs.ix.insertBatch(rs.rules[i : i+n])
	}
}

// Remove deletes every rule with the given ID (like `ipfw delete`) and
// returns how many were removed. The indexed classifier's index is
// maintained incrementally.
func (rs *RuleSet) Remove(id int) int {
	lo := sort.Search(len(rs.rules), func(i int) bool { return rs.rules[i].ID >= id })
	hi := sort.Search(len(rs.rules), func(i int) bool { return rs.rules[i].ID > id })
	if lo == hi {
		return 0
	}
	if rs.ix != nil {
		rs.ix.removeBatch(rs.rules[lo:hi])
	}
	rs.rules = append(rs.rules[:lo], rs.rules[hi:]...)
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
			if rs.ix != nil {
				rs.ix.remove(rs.rules[i])
			}
			rs.rules = append(rs.rules[:i], rs.rules[i+1:]...)
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
// collecting every matching pipe and stopping at the first Accept or
// Deny. Under the linear classifier this is the ordered scan the paper
// identifies as P2PLab's main scalability limit ("it is not possible
// to evaluate the rules in a hierarchical way, or with a hash table");
// under the indexed classifier only the candidate rules whose hash
// buckets can match are merged, in the same (ID, insertion) order, so
// the verdict is identical and only Visited (and Cost) shrink.
func (rs *RuleSet) Eval(src, dst ip.Addr) Verdict {
	var v Verdict
	if rs.ix != nil {
		rs.ix.eval(src, dst, &v)
	} else {
		evalLinear(rs.rules, src, dst, &v)
	}
	v.Cost = time.Duration(v.Visited) * rs.PerRuleCost
	rs.evals++
	rs.visited += uint64(v.Visited)
	return v
}

// EvalStats reports how many evaluations ran and the total rules visited.
func (rs *RuleSet) EvalStats() (evals, visited uint64) { return rs.evals, rs.visited }

// evalLinear is the shared ordered-scan core: rules must be sorted in
// evaluation order. It fills Pipes, Deny and Visited; the caller
// prices Cost.
func evalLinear(rules []Rule, src, dst ip.Addr, v *Verdict) {
	for i := range rules {
		r := &rules[i]
		v.Visited++
		if !r.Matches(src, dst) {
			continue
		}
		switch r.Action {
		case ActionPipe:
			if r.Pipe != nil {
				v.Pipes = append(v.Pipes, r.Pipe)
			}
		case ActionAccept:
			return
		case ActionDeny:
			v.Deny = true
			return
		case ActionCount:
			// match counted, no effect
		}
	}
}

// ruleIndex is the hash-indexed classifier's data structure: hash
// indexes over the source /24 and destination /24 in front of a short
// residual linear table. Bucket lists stay sorted by (ID, insertion
// order) so a three-way merge reproduces the linear table's exact
// evaluation order — including tables with duplicate rule IDs, where
// insertion order is the tie-break.
type ruleIndex struct {
	bySrc    map[ip.Prefix][]Rule // rules with src /24 or longer
	byDst    map[ip.Prefix][]Rule // wide-src rules with dst /24 or longer
	residual []Rule               // wide src and wide dst
}

func newRuleIndex() *ruleIndex {
	return &ruleIndex{
		bySrc: make(map[ip.Prefix][]Rule),
		byDst: make(map[ip.Prefix][]Rule),
	}
}

// bucketKey names the bucket a rule lives in. bucketOf is the single
// place that encodes the bucketing policy: insert and every removal
// path go through it, so they cannot drift apart.
type bucketKey struct {
	kind int // 0 = bySrc, 1 = byDst, 2 = residual
	key  ip.Prefix
}

func bucketOf(r Rule) bucketKey {
	switch {
	case r.Src.Bits() >= 24:
		return bucketKey{kind: 0, key: ip.NewPrefix(r.Src.Addr(), 24)}
	case r.Dst.Bits() >= 24:
		return bucketKey{kind: 1, key: ip.NewPrefix(r.Dst.Addr(), 24)}
	default:
		return bucketKey{kind: 2}
	}
}

func (ix *ruleIndex) get(b bucketKey) []Rule {
	switch b.kind {
	case 0:
		return ix.bySrc[b.key]
	case 1:
		return ix.byDst[b.key]
	default:
		return ix.residual
	}
}

// set stores a bucket's list back, dropping emptied map entries.
func (ix *ruleIndex) set(b bucketKey, list []Rule) {
	switch b.kind {
	case 0:
		if len(list) == 0 {
			delete(ix.bySrc, b.key)
		} else {
			ix.bySrc[b.key] = list
		}
	case 1:
		if len(list) == 0 {
			delete(ix.byDst, b.key)
		} else {
			ix.byDst[b.key] = list
		}
	default:
		ix.residual = list
	}
}

// insert places r into its bucket, keeping (ID, seq) order.
func (ix *ruleIndex) insert(r Rule) {
	b := bucketOf(r)
	list := ix.get(b)
	i := sort.Search(len(list), func(i int) bool { return r.before(&list[i]) })
	list = append(list, Rule{})
	copy(list[i+1:], list[i:])
	list[i] = r
	ix.set(b, list)
}

// remove deletes the exact rule (matched by its unique seq) from its
// bucket.
func (ix *ruleIndex) remove(r Rule) {
	b := bucketOf(r)
	list := ix.get(b)
	for i := range list {
		if list[i].seq == r.seq {
			ix.set(b, append(list[:i], list[i+1:]...))
			return
		}
	}
}

// insertBatch splices a run of rules — identical prefixes (one
// bucket), consecutive (ID, seq) order — into the index with a single
// bucket rebuild.
func (ix *ruleIndex) insertBatch(rules []Rule) {
	if len(rules) == 0 {
		return
	}
	b := bucketOf(rules[0])
	list := ix.get(b)
	r0 := rules[0]
	i := sort.Search(len(list), func(i int) bool { return r0.before(&list[i]) })
	out := make([]Rule, 0, len(list)+len(rules))
	out = append(out, list[:i]...)
	out = append(out, rules...)
	out = append(out, list[i:]...)
	ix.set(b, out)
}

// removeBatch deletes many rules at once, filtering each affected
// bucket a single time — a 100k-copy filler batch removed by one
// del-rule event must not rescan its bucket per rule.
func (ix *ruleIndex) removeBatch(rules []Rule) {
	seqs := make(map[bucketKey]map[uint64]bool)
	for i := range rules {
		b := bucketOf(rules[i])
		if seqs[b] == nil {
			seqs[b] = make(map[uint64]bool)
		}
		seqs[b][rules[i].seq] = true
	}
	//lint:allow maporder each bucket is filtered exactly once, keyed by its own map key; bucket visit order is immaterial
	for b, gone := range seqs {
		list := ix.get(b)
		kept := make([]Rule, 0, len(list)-len(gone))
		for i := range list {
			if !gone[list[i].seq] {
				kept = append(kept, list[i])
			}
		}
		ix.set(b, kept)
	}
}

// eval merges the candidate rules from the two hash buckets and the
// residual list in (ID, insertion) order — exactly the linear table's
// evaluation order restricted to rules that can match this packet's
// /24s — and applies the same action semantics as evalLinear.
func (ix *ruleIndex) eval(src, dst ip.Addr, v *Verdict) {
	srcRules := ix.bySrc[ip.NewPrefix(src, 24)]
	dstRules := ix.byDst[ip.NewPrefix(dst, 24)]

	si, di, ri := 0, 0, 0
	for si < len(srcRules) || di < len(dstRules) || ri < len(ix.residual) {
		// Three-way merge by (ID, seq): strict before() comparison on
		// both components preserves linear-table insertion order even
		// with duplicate rule IDs across lists.
		best := (*Rule)(nil)
		bestList := -1
		if si < len(srcRules) {
			best, bestList = &srcRules[si], 0
		}
		if di < len(dstRules) && (best == nil || dstRules[di].before(best)) {
			best, bestList = &dstRules[di], 1
		}
		if ri < len(ix.residual) && (best == nil || ix.residual[ri].before(best)) {
			best, bestList = &ix.residual[ri], 2
		}
		switch bestList {
		case 0:
			si++
		case 1:
			di++
		case 2:
			ri++
		}
		v.Visited++
		if !best.Matches(src, dst) {
			continue
		}
		switch best.Action {
		case ActionPipe:
			if best.Pipe != nil {
				v.Pipes = append(v.Pipes, best.Pipe)
			}
		case ActionAccept:
			return
		case ActionDeny:
			v.Deny = true
			return
		case ActionCount:
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
