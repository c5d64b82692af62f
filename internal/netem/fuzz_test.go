package netem

import (
	"testing"

	"repro/internal/ip"
)

// FuzzRuleEval decodes arbitrary bytes into a stream of table
// operations and queries, applies it to a table under test (starting
// under the indexed classifier) and to its linear twin, and checks
// after every query that the two agree: the same Deny always, every
// field when the table under test is linear, and when it is indexed
// no more rules visited than the linear scan and exactly the verdict of
// an index built afresh from the twin's table. An index that outlives
// a change — a mutation that forgets to drop it — answers from the old
// table and fails the last check. Nothing may panic. The committed seed
// corpus (testdata/fuzz/FuzzRuleEval) reaches every operation and is
// replayed by `go test`; CI also fuzzes it for a bounded time.
//
// Byte format (forgiving — any input decodes to *some* stream): an
// opcode byte (mod 6), then its operands; an operation whose operands
// are cut short ends the stream.
//
//	0 Add           idDelta, srcSel, srcBits, dstSel, dstBits, action
//	                (mod 3: count, allow, deny); added with AddHandle
//	1 AddCopies     the six Add bytes, then copies (mod 4, plus 1)
//	2 Remove        ID offset from 100 (mod the IDs issued, plus 1)
//	3 RemoveHandle  handle number (mod the handles issued)
//	4 classifier    no operand: switch the table under test between
//	                indexed and linear
//	5 query         (src, dst) address selectors
func FuzzRuleEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0})
	// Same-ID allow and deny rules spread over the three index buckets,
	// so a merge that leaves insertion order flips the verdict, then
	// queries that hit them.
	f.Add([]byte{
		0, 0, 1, 4, 2, 0, 2, // id 100: src /32 deny → bySrc
		0, 0, 1, 0, 2, 4, 1, // id 100: dst /32 allow → byDst
		0, 0, 0, 0, 0, 0, 0, // id 100: wide count → residual
		0, 1, 1, 4, 0, 0, 1, // id 101: src /32 allow
		5, 1, 2, 5, 3, 4, 5, 2, 1})
	// Every mutation between two queries that see it: a stale index
	// after Remove, AddCopies or RemoveHandle changes the second answer.
	f.Add([]byte{
		0, 0, 1, 4, 0, 0, 2, // id 100: src a1 /32 deny (handle 0)
		5, 1, 2, // denied; the index is built
		2, 0, // Remove(100)
		5, 1, 2, // passes
		1, 1, 1, 4, 0, 0, 2, 1, // id 101: two copies of src a1 /32 deny
		5, 1, 2, // denied again
		0, 0, 5, 4, 0, 0, 2, // id 101: src a5 /32 deny (handle 1)
		5, 5, 2, // denied
		3, 1, // RemoveHandle(handle 1)
		5, 5, 2, // passes
		4, 5, 1, 2, // linear: denied by the copies
		4, 5, 1, 2, 5, 5, 2}) // indexed again
	f.Fuzz(func(t *testing.T, data []byte) {
		lin := NewRuleSet()
		idx := NewRuleSet()
		idx.SetClassifier(ClassifierIndexed)
		var handles []RuleHandle
		id := 100
		rule := func(b []byte) Rule {
			id += int(b[0]) % 3 // deltas of 0 force duplicate IDs
			return Rule{
				ID:     id,
				Src:    fuzzPrefix(b[1], b[2]),
				Dst:    fuzzPrefix(b[3], b[4]),
				Action: Action(b[5] % 3),
			}
		}
		operands := []int{6, 7, 1, 1, 0, 2}
		for len(data) > 0 {
			op := int(data[0]) % len(operands)
			if len(data) < 1+operands[op] {
				return
			}
			b := data[1 : 1+operands[op]]
			data = data[1+operands[op]:]
			switch op {
			case 0:
				r := rule(b)
				lh, ih := lin.AddHandle(r), idx.AddHandle(r)
				if lh != ih {
					t.Fatalf("AddHandle: linear %+v, indexed %+v", lh, ih)
				}
				handles = append(handles, ih)
			case 1:
				r, n := rule(b), int(b[6])%4+1
				lin.AddCopies(r, n)
				idx.AddCopies(r, n)
			case 2:
				victim := 100 + int(b[0])%(id-100+1)
				if got, want := idx.Remove(victim), lin.Remove(victim); got != want {
					t.Fatalf("Remove(%d) removed %d, linear twin %d", victim, got, want)
				}
			case 3:
				if len(handles) == 0 {
					continue
				}
				h := handles[int(b[0])%len(handles)]
				if got, want := idx.RemoveHandle(h), lin.RemoveHandle(h); got != want {
					t.Fatalf("RemoveHandle(%+v) = %v, linear twin %v", h, got, want)
				}
			case 4:
				idx.SetClassifier(1 - idx.Classifier())
			case 5:
				src, dst := fuzzAddr(b[0]), fuzzAddr(b[1])
				lv, iv := lin.Eval(src, dst), idx.Eval(src, dst)
				if idx.Classifier() == ClassifierLinear {
					if iv != lv {
						t.Fatalf("linear %+v != switched-back table %+v for %v→%v", lv, iv, src, dst)
					}
					continue
				}
				if lv.Deny != iv.Deny {
					t.Fatalf("linear %+v != indexed %+v for %v→%v\ntable:\n%s", lv, iv, src, dst, dumpRules(lin))
				}
				if iv.Visited > lv.Visited {
					t.Fatalf("indexed visited %d > linear %d for %v→%v", iv.Visited, lv.Visited, src, dst)
				}
				if fresh := indexedCopy(lin).Eval(src, dst); iv != fresh {
					t.Fatalf("indexed %+v != freshly built index %+v for %v→%v (stale index)", iv, fresh, src, dst)
				}
			}
			if lin.Len() != idx.Len() {
				t.Fatalf("table sizes diverge: linear %d, indexed %d", lin.Len(), idx.Len())
			}
		}
	})
}

// fuzzAddr maps one byte into a small 10/8 pocket so queries collide
// with rule prefixes often.
func fuzzAddr(b byte) ip.Addr {
	return ip.MustParseAddr("10.0.0.0").Add(uint32(b&0x30)<<12 | uint32(b&0x0c)<<6 | uint32(b&0x03))
}

// fuzzPrefix maps (selector, bits) bytes to a prefix over the same
// pocket; bits snaps to the widths real tables use.
func fuzzPrefix(sel, bits byte) ip.Prefix {
	widths := []int{0, 8, 16, 24, 32}
	return ip.NewPrefix(fuzzAddr(sel), widths[int(bits)%len(widths)])
}
