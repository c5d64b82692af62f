// Package metrics collects and renders experiment results: time series,
// cumulative distribution functions and summary statistics, with
// gnuplot-compatible output so every figure of the paper can be
// regenerated as a .dat file.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Point is one (x, y) sample.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points, one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// At returns the linearly interpolated y at x, clamping outside the
// sampled range. The series must be sorted by X.
//
//lint:allow unused exp's folding test compares two curves through it
func (s *Series) At(x float64) float64 {
	n := len(s.Points)
	if n == 0 {
		return 0
	}
	if x <= s.Points[0].X {
		return s.Points[0].Y
	}
	if x >= s.Points[n-1].X {
		return s.Points[n-1].Y
	}
	i := sort.Search(n, func(i int) bool { return s.Points[i].X >= x })
	a, b := s.Points[i-1], s.Points[i]
	if b.X == a.X {
		return b.Y
	}
	t := (x - a.X) / (b.X - a.X)
	return a.Y + float64(t*(b.Y-a.Y))
}

// CDF builds the empirical cumulative distribution of samples: points
// (v, F(v)) with F stepping by 1/n, the exact construction of the
// paper's Fig 3.
func CDF(samples []float64) Series {
	vs := append([]float64(nil), samples...)
	sort.Float64s(vs)
	s := Series{Name: "cdf"}
	n := float64(len(vs))
	for i, v := range vs {
		s.Add(v, float64(i+1)/n)
	}
	return s
}

// Summary holds order statistics of a sample.
type Summary struct {
	N           int
	Min, Max    float64
	Mean        float64
	Median, P90 float64
}

// Summarize computes order statistics.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	vs := append([]float64(nil), samples...)
	sort.Float64s(vs)
	var sum float64
	for _, v := range vs {
		sum += v
	}
	n := float64(len(vs))
	mean := sum / n
	q := func(p float64) float64 {
		idx := float64(p * (n - 1))
		lo := int(idx)
		hi := lo + 1
		if hi >= len(vs) {
			return vs[len(vs)-1]
		}
		frac := idx - float64(lo)
		return float64(vs[lo]*(1-frac)) + float64(vs[hi]*frac)
	}
	return Summary{
		N: len(vs), Min: vs[0], Max: vs[len(vs)-1],
		Mean: mean, Median: q(0.50), P90: q(0.90),
	}
}

// WriteDat renders series in gnuplot's "index" format: one block per
// series, preceded by a comment header, blank-line separated.
func WriteDat(w io.Writer, series ...*Series) error {
	for i, s := range series {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# %s\n", s.Name); err != nil {
			return err
		}
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%g %g\n", p.X, p.Y); err != nil {
				return err
			}
		}
	}
	return nil
}

// Table renders rows of labeled values as an aligned text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) && len(c) < widths[i] {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// Downsample returns at most n points of s, evenly spaced by index,
// always keeping the first and last point. Useful to keep .dat files of
// 5000-client experiments readable.
func Downsample(s *Series, n int) *Series {
	if n <= 0 || s.Len() <= n {
		out := &Series{Name: s.Name, Points: append([]Point(nil), s.Points...)}
		return out
	}
	if n == 1 {
		// A single kept point is the last one (the forced endpoint).
		return &Series{Name: s.Name, Points: []Point{s.Points[s.Len()-1]}}
	}
	out := &Series{Name: s.Name}
	// Exact integer rounding of i*(L-1)/(n-1): no float step, so the
	// rounded second-to-last index can never collide with the forced
	// final point (and no NaN/overflow edge cases). round(a/b) with
	// positive a,b is (2a+b)/(2b).
	last := s.Len() - 1
	for i := 0; i < n; i++ {
		idx := (2*i*last + (n - 1)) / (2 * (n - 1))
		out.Points = append(out.Points, s.Points[idx])
	}
	out.Points[n-1] = s.Points[last]
	return out
}
