package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is one experiment run's results flattened into named
// measurements, the mergeable unit the sweep engine aggregates across
// grid cells. Labels identify the cell (experiment, class, seed, ...),
// Values hold point measurements, Counters hold additive totals.
type Snapshot struct {
	Labels   map[string]string
	Values   map[string]float64
	Counters map[string]uint64
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		Labels:   make(map[string]string),
		Values:   make(map[string]float64),
		Counters: make(map[string]uint64),
	}
}

// Label sets an identifying coordinate.
func (s *Snapshot) Label(key, value string) { s.Labels[key] = value }

// Set records a point measurement.
func (s *Snapshot) Set(key string, v float64) { s.Values[key] = v }

// Count adds n to an additive counter.
func (s *Snapshot) Count(key string, n uint64) { s.Counters[key] += n }

// Aggregate merges snapshots from many runs: counters sum, values
// collect into per-key samples ready for Summarize. Merge order is the
// caller's iteration order; because addition over counters is
// commutative and samples are only summarized, the aggregate is
// independent of the order cells *finished* in as long as the caller
// adds them in a fixed order.
type Aggregate struct {
	Counters map[string]uint64
	// CounterCells tracks, per counter key, how many merged snapshots
	// actually recorded that counter — cells that measure different
	// things must not inflate each other's "n".
	CounterCells map[string]int
	Samples      map[string][]float64
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{
		Counters:     make(map[string]uint64),
		CounterCells: make(map[string]int),
		Samples:      make(map[string][]float64),
	}
}

// Add merges one snapshot.
func (a *Aggregate) Add(s *Snapshot) {
	if s == nil {
		return
	}
	for k, n := range s.Counters {
		a.Counters[k] += n
		a.CounterCells[k]++
	}
	for k, v := range s.Values {
		a.Samples[k] = append(a.Samples[k], v)
	}
}

// ValueKeys returns the sampled value keys, sorted.
func (a *Aggregate) ValueKeys() []string {
	keys := make([]string, 0, len(a.Samples))
	for k := range a.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Summary returns order statistics for one value key across all merged
// cells.
func (a *Aggregate) Summary(key string) Summary { return Summarize(a.Samples[key]) }

// Table renders the aggregate as a per-key summary table (one row per
// value key, then one per counter).
func (a *Aggregate) Table() *Table {
	t := &Table{Header: []string{"measurement", "n", "min", "mean", "median", "max"}}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	for _, k := range a.ValueKeys() {
		s := a.Summary(k)
		t.AddRow(k, strconv.Itoa(s.N), f(s.Min), f(s.Mean), f(s.Median), f(s.Max))
	}
	counters := make([]string, 0, len(a.Counters))
	for k := range a.Counters {
		counters = append(counters, k)
	}
	sort.Strings(counters)
	for _, k := range counters {
		t.AddRow(k+" (total)", strconv.Itoa(a.CounterCells[k]), "", "", "", strconv.FormatUint(a.Counters[k], 10))
	}
	return t
}

// WriteSnapshotsCSV renders one CSV row per snapshot. Columns are the
// sorted union of label, value and counter keys, so rows from cells
// that measured different things still align.
func WriteSnapshotsCSV(w io.Writer, snaps []*Snapshot) error {
	labelKeys := map[string]bool{}
	valueKeys := map[string]bool{}
	counterKeys := map[string]bool{}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for k := range s.Labels {
			labelKeys[k] = true
		}
		for k := range s.Values {
			valueKeys[k] = true
		}
		for k := range s.Counters {
			counterKeys[k] = true
		}
	}
	sorted := func(m map[string]bool) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	labels, values, counters := sorted(labelKeys), sorted(valueKeys), sorted(counterKeys)

	var header []string
	header = append(header, labels...)
	header = append(header, values...)
	header = append(header, counters...)
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		row := make([]string, 0, len(header))
		for _, k := range labels {
			row = append(row, csvEscape(s.Labels[k]))
		}
		for _, k := range values {
			if v, ok := s.Values[k]; ok {
				row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
			} else {
				row = append(row, "")
			}
		}
		for _, k := range counters {
			if n, ok := s.Counters[k]; ok {
				row = append(row, strconv.FormatUint(n, 10))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// csvEscape quotes a field if it contains a separator, quote or newline.
func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
