package obs

import (
	"bufio"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestCounterGaugeGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("requests_total", "", "Requests.")
	c2 := r.Counter("requests_total", "", "Requests.")
	if c1 != c2 {
		t.Fatal("same name+labels must return the same counter")
	}
	c1.Inc()
	c1.Add(4)
	if got := c2.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}

	// Label order must not matter.
	a := r.Counter("labelled_total", "", "x", L("a", "1"), L("b", "2"))
	b := r.Counter("labelled_total", "", "x", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label registration order must canonicalize to one series")
	}
	// A different value is a different series.
	c := r.Counter("labelled_total", "", "x", L("a", "1"), L("b", "3"))
	if c == a {
		t.Fatal("distinct label values must be distinct series")
	}

	g := r.Gauge("depth", "", "Queue depth.")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %g, want 5", got)
	}
}

// TestNilSafety covers the one nil value obs still hands out: the
// Sampler StartSampler returns when it has no interval or no callback,
// which schedules nothing and whose Stop is a no-op.
func TestNilSafety(t *testing.T) {
	k := sim.New(1)
	r := NewRegistry()
	for name, s := range map[string]*Sampler{
		"zero interval": StartSampler(k, r, 0, func(sim.Time, *Snapshot) {}),
		"no callback":   StartSampler(k, r, time.Second, nil),
	} {
		if s != nil {
			t.Errorf("%s: got a live sampler", name)
		}
		s.Stop() // must not panic
	}
	if n := k.QueueLen(); n != 0 {
		t.Fatalf("a nil sampler scheduled %d events", n)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 102.65 {
		t.Fatalf("sum = %g, want 102.65", h.Sum())
	}
	snap := r.Snapshot()
	f := snap.Find("latency_seconds")
	if f == nil || len(f.Series) != 1 {
		t.Fatal("missing histogram family")
	}
	ss := f.Series[0]
	// Buckets are cumulative: ≤0.1 holds 2 (0.05 and the boundary 0.1),
	// ≤1 holds 3, ≤10 holds 4; +Inf (implicit) equals Count = 5.
	want := []Bucket{{0.1, 2}, {1, 3}, {10, 4}}
	if len(ss.Buckets) != len(want) {
		t.Fatalf("buckets = %v", ss.Buckets)
	}
	for i, b := range want {
		if ss.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, ss.Buckets[i], b)
		}
	}
	if ss.Count != 5 {
		t.Fatalf("snapshot count = %d", ss.Count)
	}

	// Same name with the same bucket count is the same series...
	h2 := r.Histogram("latency_seconds", "Latency.", []float64{0.1, 1, 10})
	if h2 != h {
		t.Fatal("histogram get-or-create broken")
	}
	// ...but a different layout panics.
	defer func() {
		if recover() == nil {
			t.Fatal("bucket-layout conflict must panic")
		}
	}()
	r.Histogram("latency_seconds", "Latency.", []float64{5})
}

func TestFuncCollectors(t *testing.T) {
	r := NewRegistry()
	n := uint64(0)
	r.CounterFunc("pulled_total", "", "", func() uint64 { return n })
	r.GaugeFunc("pulled_depth", "", "", func() float64 { return float64(n) * 2 })
	n = 21
	snap := r.Snapshot()
	if got := snap.Total("pulled_total"); got != 21 {
		t.Fatalf("counter func = %g, want 21", got)
	}
	if got := snap.Total("pulled_depth"); got != 42 {
		t.Fatalf("gauge func = %g, want 42", got)
	}

	// A push counter and a pull func on the same series add up.
	c := r.Counter("mixed_total", "", "")
	c.Add(10)
	r.CounterFunc("mixed_total", "", "", func() uint64 { return 5 })
	if got := r.Snapshot().Total("mixed_total"); got != 15 {
		t.Fatalf("mixed counter = %g, want 15", got)
	}
}

// TestColumnsProject: a family that names a column projects onto it —
// a counter into Counters, a gauge into Values, summed over its series
// — and a family without one stays out of the projection.
func TestColumnsProject(t *testing.T) {
	r := NewRegistry()
	r.Counter("sent_total", "sent", "", L("side", "a")).Add(3)
	r.Counter("sent_total", "sent", "", L("side", "b")).Add(4)
	r.GaugeFunc("ended_seconds", "ended-s", "", func() float64 { return 1.5 })
	r.Counter("private_total", "", "").Inc()
	r.Histogram("h", "", []float64{1}).Observe(1)
	dst := metrics.NewSnapshot()
	r.Snapshot().Project(dst)
	if len(dst.Counters) != 1 || dst.Counters["sent"] != 7 {
		t.Errorf("counters %v, want sent=7 only", dst.Counters)
	}
	if len(dst.Values) != 1 || dst.Values["ended-s"] != 1.5 {
		t.Errorf("values %v, want ended-s=1.5 only", dst.Values)
	}
}

// TestColumnConflictsPanic: a column belongs to one family and a
// family has one column, like a family has one kind.
func TestColumnConflictsPanic(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", what)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("a_total", "a", "")
	r.Counter("a_total", "a", "", L("k", "v")) // same family, same column: fine
	mustPanic("a second family on a taken column", func() { r.GaugeFunc("b", "a", "", func() float64 { return 0 }) })
	mustPanic("a family re-registered with another column", func() { r.Counter("a_total", "b", "") })
	mustPanic("a family re-registered without its column", func() { r.Counter("a_total", "", "") })
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "", "")
	c.Inc()
	snap := r.Snapshot()
	c.Add(100)
	if got := snap.Total("x_total"); got != 1 {
		t.Fatalf("snapshot mutated after the fact: %g", got)
	}
}

// promLine matches the sample lines of the text exposition format
// (metric name, optional label set, float value).
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[+-]?[0-9].*)$`)

// checkPromText validates the exposition: every line is a comment or a
// well-formed sample, TYPE precedes the samples of its family, and no
// metric family block repeats.
func checkPromText(t *testing.T, text string) (samples int) {
	t.Helper()
	typed := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			name, kind := parts[2], parts[3]
			if typed[name] {
				t.Fatalf("family %s declared twice", name)
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("unknown kind in %q", line)
			}
			typed[name] = true
			continue
		}
		if strings.HasPrefix(line, "# ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed sample line: %q", line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Fatalf("sample %s has no preceding TYPE", name)
		}
		samples++
	}
	return samples
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", `Help with "quotes" and \ slash`, L("peer", `p"1`)).Add(3)
	r.Gauge("g", "", "A gauge.").Set(-1.5)
	h := r.Histogram("h_seconds", "A histogram.", []float64{0.5, 2})
	h.Observe(0.1)
	h.Observe(1)
	h.Observe(9)

	var b strings.Builder
	if err := r.Snapshot().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if n := checkPromText(t, text); n != 7 { // 1 counter + 1 gauge + 3 buckets + sum + count
		t.Fatalf("got %d samples:\n%s", n, text)
	}
	for _, want := range []string{
		`c_total{peer="p\"1"} 3`,
		"g -1.5",
		`h_seconds_bucket{le="0.5"} 1`,
		`h_seconds_bucket{le="2"} 2`,
		`h_seconds_bucket{le="+Inf"} 3`,
		"h_seconds_sum 10.1",
		"h_seconds_count 3",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("missing line %q in:\n%s", want, text)
		}
	}
}

func TestMerge(t *testing.T) {
	mk := func(v uint64) *Snapshot {
		r := NewRegistry()
		r.Counter("shared_total", "", "Shared.").Add(v)
		r.Gauge(fmt.Sprintf("only_%d", v), "", "").Set(1)
		return r.Snapshot()
	}
	merged := Merge("job", []Labeled{
		{Value: "job-1", Snap: mk(1)},
		{Value: "job-2", Snap: mk(2)},
		{Value: "job-3", Snap: nil}, // skipped
	})
	f := merged.Find("shared_total")
	if f == nil || len(f.Series) != 2 {
		t.Fatalf("shared family not merged: %+v", f)
	}
	for i, want := range []string{"job-1", "job-2"} {
		if len(f.Series[i].Labels) == 0 || f.Series[i].Labels[0] != L("job", want) {
			t.Fatalf("series %d labels = %v", i, f.Series[i].Labels)
		}
	}
	if merged.Total("shared_total") != 3 {
		t.Fatalf("merged total = %g", merged.Total("shared_total"))
	}
	// The merged exposition must stay valid (no repeated family block).
	var b strings.Builder
	if err := merged.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	checkPromText(t, b.String())
}

func TestSamplerFiresAtVirtualBoundaries(t *testing.T) {
	k := sim.New(1)
	r := NewRegistry()
	c := r.Counter("ticks_total", "", "")
	// A workload that bumps the counter every 100ms of virtual time and
	// stops the kernel at 1s.
	var work func()
	work = func() {
		c.Inc()
		k.After(100*time.Millisecond, work)
	}
	k.After(100*time.Millisecond, work)
	k.After(time.Second, k.Stop)

	var at []sim.Time
	var vals []float64
	s := StartSampler(k, r, 250*time.Millisecond, func(now sim.Time, snap *Snapshot) {
		at = append(at, now)
		vals = append(vals, snap.Total("ticks_total"))
	})
	defer s.Stop()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(at) != 3 { // 250ms, 500ms, 750ms; 1s loses to Stop ordering either way
		t.Fatalf("samples at %v", at)
	}
	for i, wantAt := range []time.Duration{250 * time.Millisecond, 500 * time.Millisecond, 750 * time.Millisecond} {
		if time.Duration(at[i]) != wantAt {
			t.Fatalf("sample %d at %v, want %v", i, time.Duration(at[i]), wantAt)
		}
	}
	// Counter visible at each boundary: 2 ticks by 250ms; at 500ms the
	// sampler (scheduled at 250ms) dispatches before that instant's tick
	// (scheduled at 400ms), so it sees 4; 7 ticks by 750ms.
	if vals[0] != 2 || vals[1] != 4 || vals[2] != 7 {
		t.Fatalf("sampled values %v", vals)
	}

}

func TestUpdatesDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "", "")
	g := r.Gauge("g", "", "")
	h := r.Histogram("h", "", []float64{1, 2, 4, 8, 16, 32})
	cases := map[string]func(){
		"counter.Inc":  func() { c.Inc() },
		"counter.Add":  func() { c.Add(3) },
		"gauge.Set":    func() { g.Set(1) },
		"gauge.Add":    func() { g.Add(1) },
		"hist.Observe": func() { h.Observe(7) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s: %g allocs/op, want 0", name, allocs)
		}
	}
}

// BenchmarkObsHot measures the registry update cost paid on the vnet
// transmit path when observability is attached: a counter bump and a
// histogram observation per message-sized unit of work. Both must stay
// at 0 allocs/op — hot-path metric updates are pure
// memory writes (DESIGN.md decision 9; TestUpdatesDoNotAllocate is the
// gate).
func BenchmarkObsHot(b *testing.B) {
	reg := NewRegistry()
	sent := reg.Counter("p2plab_net_messages_sent_total", "", "")
	bytes := reg.Counter("p2plab_net_bytes_delivered_total", "", "")
	// The bounds of bt's time-to-first-peer histogram.
	ttfp := reg.Histogram("p2plab_bt_time_to_first_peer_seconds", "", []float64{0.5, 1, 2, 5, 10, 30, 60, 120, 300, 600})
	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sent.Inc()
			bytes.Add(1460)
		}
	})
	b.Run("histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ttfp.Observe(float64(i&1023) / 8)
		}
	})
}
