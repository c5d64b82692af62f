// Package obs is the deterministic in-kernel metric registry: counters,
// gauges and fixed-bucket histograms registered by name+labels, updated
// from emulation hot paths with zero allocation, and sampled only at
// virtual-time boundaries.
//
// Determinism is the design constraint that separates this package from
// an ordinary metrics library. Metric updates are plain memory writes —
// they never allocate, never consult the kernel RNG, never write the
// trace and never schedule events — so an instrumented run dispatches
// exactly the same event sequence as an uninstrumented one and golden
// traces stay byte-identical with a registry attached or not (the
// property tests live in internal/bt and internal/scenario). Sampling
// happens from a kernel event at virtual-time boundaries (see Sampler),
// so every snapshot is taken at a well-defined instant of the timeline
// rather than whenever a scraper happens to ask.
//
// A counter or gauge family may name a column when it registers: the
// short key (net-sent, t50-s) a run's metrics.Snapshot reports it under.
// Snapshot.Project is that mapping, so a column has no second source.
//
// The registry is not thread-safe by design: everything inside one
// kernel runs one goroutine at a time, which is exactly the discipline
// updates and snapshots follow. Callers outside a kernel (the serve
// layer's own request counters) must serialize access themselves.
//
// All accessors tolerate a nil registry and nil instruments: a nil
// *Counter's Inc is a no-op, so instrumented code paths need no
// "metrics enabled?" branches beyond the nil check built into the
// method.
package obs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// Label is one name=value dimension of a metric series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Kind discriminates metric families.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing value. The zero method set on a
// nil receiver is a no-op, so disabled instrumentation costs one branch.
type Counter struct{ v uint64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a value that can go up and down.
type Gauge struct{ v float64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram counts observations into fixed buckets chosen at
// registration. Observe is a linear scan over the (small, fixed) bound
// slice: no allocation, no branching on registry state.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []uint64  // len(bounds)+1; last is the overflow bucket
	sum    float64
	n      uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.sum += v
	h.n++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// series is one labelled instance of a family.
type series struct {
	key    string // canonical label signature (sig)
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	cfn    func() uint64  // pull-style counter
	gfn    func() float64 // pull-style gauge
}

// family groups the series sharing one metric name. Label cardinality
// is bounded by design (no per-peer labels), so a family's few series
// are found by a scan in registration order.
type family struct {
	name, col, help string
	kind            Kind
	bounds          []float64
	series          []*series
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. A nil *Registry is a valid "observability off" value:
// every getter returns nil and every registration is a no-op.
type Registry struct {
	families map[string]*family
	cols     map[string]string // column -> family name ("" is no column)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), cols: make(map[string]string)}
}

// sig canonicalizes a label set; labels are sorted by key so the same
// set registered in any order lands on the same series.
func sig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

// getFamily finds or creates the named family, panicking on a kind,
// bucket-layout or column conflict — re-registering a name with a
// different shape, or giving a second family a column another one
// already owns, is a programming error, not a runtime condition.
func (r *Registry) getFamily(name, col, help string, kind Kind, bounds []float64) *family {
	f := r.families[name]
	if f == nil {
		if owner, taken := r.cols[col]; taken && col != "" {
			panic(fmt.Sprintf("obs: column %q of %s already belongs to %s", col, name, owner))
		}
		f = &family{name: name, col: col, help: help, kind: kind,
			bounds: append([]float64(nil), bounds...)}
		r.families[name], r.cols[col] = f, name
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	if f.col != col {
		panic(fmt.Sprintf("obs: %s registered with column %q, requested with %q", name, f.col, col))
	}
	if kind == KindHistogram && len(f.bounds) != len(bounds) {
		panic(fmt.Sprintf("obs: histogram %s re-registered with different buckets", name))
	}
	return f
}

// getSeries finds or creates the labelled series within f.
func (f *family) getSeries(labels []Label) *series {
	key := sig(labels)
	for _, s := range f.series {
		if s.key == key {
			return s
		}
	}
	s := &series{key: key, labels: append([]Label(nil), labels...)}
	sort.Slice(s.labels, func(i, j int) bool { return s.labels[i].Key < s.labels[j].Key })
	f.series = append(f.series, s)
	return s
}

// Counter returns the named counter series, creating it on first use.
// Returns nil on a nil registry. col, when not empty, is the short
// column the family projects to (Snapshot.Project); a family has one
// column at most, and a column belongs to one family.
func (r *Registry) Counter(name, col, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := r.getFamily(name, col, help, KindCounter, nil).getSeries(labels)
	if s.ctr == nil {
		s.ctr = &Counter{}
	}
	return s.ctr
}

// Gauge returns the named gauge series, creating it on first use; col
// is as for Counter.
func (r *Registry) Gauge(name, col, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := r.getFamily(name, col, help, KindGauge, nil).getSeries(labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Histogram returns the named histogram series with the given ascending
// bucket upper bounds (+Inf is implicit), creating it on first use.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %s bounds not ascending: %v", name, bounds))
	}
	f := r.getFamily(name, "", help, KindHistogram, bounds)
	s := f.getSeries(labels)
	if s.hist == nil {
		s.hist = &Histogram{bounds: f.bounds, counts: make([]uint64, len(f.bounds)+1)}
	}
	return s.hist
}

// CounterFunc registers a pull-style counter evaluated at snapshot
// time — the idiom for mirroring counters a subsystem already keeps
// (flow.Stats, netem.PipeStats) without double-counting on the hot
// path. fn runs in kernel context during Snapshot and must be cheap,
// deterministic and side-effect free. col is as for Counter.
func (r *Registry) CounterFunc(name, col, help string, fn func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.getFamily(name, col, help, KindCounter, nil).getSeries(labels).cfn = fn
}

// GaugeFunc registers a pull-style gauge evaluated at snapshot time
// (queue depths, connection counts). Same contract as CounterFunc.
func (r *Registry) GaugeFunc(name, col, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.getFamily(name, col, help, KindGauge, nil).getSeries(labels).gfn = fn
}

// Snapshot types: a deep copy of the registry at one instant, safe to
// hand to other goroutines (the serve layer publishes them to HTTP
// clients while the kernel keeps running).

// Bucket is one cumulative histogram bucket (observations ≤ LE).
type Bucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// SeriesSnap is one series at snapshot time.
type SeriesSnap struct {
	Labels []Label `json:"labels,omitempty"`
	// Value carries the counter or gauge value.
	Value float64 `json:"value"`
	// Histogram-only fields. Buckets are cumulative over the finite
	// bounds; the implicit +Inf bucket equals Count.
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Family is all series of one metric name.
type Family struct {
	Name   string       `json:"name"`
	Column string       `json:"column,omitempty"`
	Help   string       `json:"help,omitempty"`
	Kind   Kind         `json:"kind"`
	Series []SeriesSnap `json:"series"`
}

// Snapshot is the whole registry at one instant, families sorted by
// name, series in registration order.
type Snapshot struct {
	Families []Family `json:"families"`
}

// Snapshot deep-copies the registry, evaluating Func collectors. It
// allocates (unlike updates) and is meant to run at sampling boundaries
// only. Returns nil on a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.families))
	//lint:allow maporder collected names are sorted below before use
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	snap := &Snapshot{Families: make([]Family, 0, len(names))}
	for _, name := range names {
		f := r.families[name]
		fam := Family{Name: f.name, Column: f.col, Help: f.help, Kind: f.kind,
			Series: make([]SeriesSnap, 0, len(f.series))}
		for _, s := range f.series {
			ss := SeriesSnap{Labels: append([]Label(nil), s.labels...)}
			switch f.kind {
			case KindCounter:
				v := s.ctr.Value()
				if s.cfn != nil {
					v += s.cfn()
				}
				ss.Value = float64(v)
			case KindGauge:
				if s.gfn != nil {
					ss.Value = s.gfn()
				} else {
					ss.Value = s.gauge.Value()
				}
			case KindHistogram:
				h := s.hist
				ss.Count, ss.Sum = h.n, h.sum
				ss.Buckets = make([]Bucket, len(h.bounds))
				var cum uint64
				for i, b := range h.bounds {
					cum += h.counts[i]
					ss.Buckets[i] = Bucket{LE: b, Count: cum}
				}
			}
			fam.Series = append(fam.Series, ss)
		}
		snap.Families = append(snap.Families, fam)
	}
	return snap
}

// Find returns the named family of a snapshot, or nil.
func (s *Snapshot) Find(name string) *Family {
	if s == nil {
		return nil
	}
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// Total sums the values of every series of the named family — the
// common "how many in total, across labels" test helper. Histograms
// contribute their observation count.
func (s *Snapshot) Total(name string) float64 {
	f := s.Find(name)
	if f == nil {
		return 0
	}
	var sum float64
	for _, ss := range f.Series {
		if f.Kind == KindHistogram {
			sum += float64(ss.Count)
		} else {
			sum += ss.Value
		}
	}
	return sum
}

// Project writes each family that names a column into dst, as its
// Total: a counter to dst.Counters, a gauge to dst.Values (a histogram
// names none). A run's metrics.Snapshot is this projection of its final
// registry snapshot, so a column and its family cannot disagree.
func (s *Snapshot) Project(dst *metrics.Snapshot) {
	for _, f := range s.Families {
		switch {
		case f.Column == "":
		case f.Kind == KindCounter:
			dst.Counters[f.Column] = uint64(s.Total(f.Name))
		default:
			dst.Values[f.Column] = s.Total(f.Name)
		}
	}
}
