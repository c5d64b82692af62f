package netem

import (
	"testing"

	"repro/internal/ip"
	"repro/internal/sim"
)

// FuzzRuleEval decodes arbitrary bytes into a rule table plus a query
// batch and checks the classifier-equivalence property on it: the
// linear and indexed classifiers must return identical verdicts (pipe
// order, Deny), the two indexed implementations must agree exactly,
// and nothing may panic. The committed seed corpus
// (testdata/fuzz/FuzzRuleEval) is replayed in CI alongside the other
// fuzz targets.
//
// Byte format (forgiving — any input decodes to *some* table):
//
//	data[0]        rule count n (mod 48)
//	6 bytes/rule   idDelta, srcSel, srcBits, dstSel, dstBits, action
//	rest, 2 each   (src, dst) query address selectors
func FuzzRuleEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	// Duplicate IDs across different buckets, then queries that hit them.
	f.Add([]byte{4,
		0, 1, 32, 2, 0, 0, // id 100: src /32 → bySrc
		0, 1, 0, 2, 32, 0, // id 100: dst /32 → byDst
		0, 0, 0, 0, 0, 3, // id 100: wide count → residual
		1, 1, 32, 0, 0, 2, // id 101: deny
		1, 2, 3, 4})
	f.Add([]byte{8, 2, 1, 24, 3, 16, 1, 0, 5, 32, 7, 32, 2, 1, 0, 0, 0, 0, 4,
		9, 9, 1, 7, 2, 8, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			data = []byte{0}
		}
		k := sim.New(1)
		pipe := NewPipe(k, "fuzz", PipeConfig{})
		lin := NewRuleSet()
		idx := NewRuleSet()
		idx.SetClassifier(ClassifierIndexed)
		n := int(data[0]) % 48
		data = data[1:]
		id := 100
		for i := 0; i < n && len(data) >= 6; i++ {
			id += int(data[0]) % 3 // deltas of 0 force duplicate IDs
			r := Rule{
				ID:  id,
				Src: fuzzPrefix(data[1], data[2]),
				Dst: fuzzPrefix(data[3], data[4]),
			}
			switch data[5] % 4 {
			case 0:
				r.Action = ActionPipe
				r.Pipe = pipe
			case 1:
				r.Action = ActionAccept
			case 2:
				r.Action = ActionDeny
			default:
				r.Action = ActionCount
			}
			lin.Add(r)
			idx.Add(r)
			data = data[6:]
		}
		bulk := indexedCopy(lin)
		for len(data) >= 2 {
			src, dst := fuzzAddr(data[0]), fuzzAddr(data[1])
			data = data[2:]
			lv := lin.Eval(src, dst)
			iv := idx.Eval(src, dst)
			bv := bulk.Eval(src, dst)
			if lv.Deny != iv.Deny || len(lv.Pipes) != len(iv.Pipes) {
				t.Fatalf("linear %+v != indexed %+v for %v→%v", lv, iv, src, dst)
			}
			for i := range lv.Pipes {
				if lv.Pipes[i] != iv.Pipes[i] {
					t.Fatalf("pipe order diverged at %d for %v→%v", i, src, dst)
				}
			}
			if iv.Deny != bv.Deny || iv.Visited != bv.Visited || len(iv.Pipes) != len(bv.Pipes) {
				t.Fatalf("incremental %+v != bulk %+v for %v→%v", iv, bv, src, dst)
			}
			if iv.Visited > lv.Visited {
				t.Fatalf("indexed visited %d > linear %d", iv.Visited, lv.Visited)
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
