package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesAddAndExtremes(t *testing.T) {
	var s Series
	s.Add(0, 5)
	s.Add(1, 2)
	s.Add(2, 9)
	if s.Len() != 3 || s.MinY() != 2 || s.MaxY() != 9 || s.LastY() != 9 {
		t.Fatalf("series stats wrong: %+v", s)
	}
}

func TestEmptySeries(t *testing.T) {
	var s Series
	if s.MinY() != 0 || s.MaxY() != 0 || s.LastY() != 0 || s.At(3) != 0 {
		t.Fatal("empty series should return zeros")
	}
}

func TestSeriesAtInterpolates(t *testing.T) {
	s := Series{Points: []Point{{0, 0}, {10, 100}}}
	if got := s.At(5); got != 50 {
		t.Fatalf("At(5) = %v, want 50", got)
	}
	if got := s.At(-1); got != 0 {
		t.Fatalf("At(-1) = %v, want clamp to 0", got)
	}
	if got := s.At(11); got != 100 {
		t.Fatalf("At(11) = %v, want clamp to 100", got)
	}
}

func TestSeriesSortByX(t *testing.T) {
	s := Series{Points: []Point{{3, 1}, {1, 2}, {2, 3}}}
	s.SortByX()
	if s.Points[0].X != 1 || s.Points[2].X != 3 {
		t.Fatalf("not sorted: %v", s.Points)
	}
}

func TestCDFProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 0
			}
		}
		c := CDF(raw)
		if c.Len() != len(raw) {
			return false
		}
		// Monotone in both coordinates, ends at 1.
		for i := 1; i < c.Len(); i++ {
			if c.Points[i].X < c.Points[i-1].X || c.Points[i].Y < c.Points[i-1].Y {
				return false
			}
		}
		return c.Points[c.Len()-1].Y == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFExactSmall(t *testing.T) {
	c := CDF([]float64{3, 1, 2, 4})
	want := []Point{{1, 0.25}, {2, 0.5}, {3, 0.75}, {4, 1}}
	for i, p := range want {
		if c.Points[i] != p {
			t.Fatalf("cdf[%d] = %v, want %v", i, c.Points[i], p)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Spread() != 4 {
		t.Fatalf("spread = %v", s.Spread())
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatal("empty summary should be zero")
	}
}

func TestSummarizeQuantilesOrdered(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = float64(i)
			}
		}
		s := Summarize(raw)
		return s.Min <= s.Median && s.Median <= s.P90 && s.P90 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDat(t *testing.T) {
	a := &Series{Name: "one", Points: []Point{{1, 2}, {3, 4}}}
	b := &Series{Name: "two", Points: []Point{{5, 6}}}
	var sb strings.Builder
	if err := WriteDat(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "# one\n1 2\n3 4\n\n\n# two\n5 6\n"
	if got != want {
		t.Fatalf("dat output:\n%q\nwant:\n%q", got, want)
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Header: []string{"name", "value"}}
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "alpha  1") {
		t.Fatalf("misaligned: %q", lines[1])
	}
}

func TestDownsample(t *testing.T) {
	var s Series
	for i := 0; i < 1000; i++ {
		s.Add(float64(i), float64(i)*2)
	}
	d := Downsample(&s, 10)
	if d.Len() != 10 {
		t.Fatalf("len = %d, want 10", d.Len())
	}
	if d.Points[0] != s.Points[0] || d.Points[9] != s.Points[999] {
		t.Fatal("endpoints must be preserved")
	}
	xs := make([]float64, d.Len())
	for i, p := range d.Points {
		xs[i] = p.X
	}
	if !sort.Float64sAreSorted(xs) {
		t.Fatal("downsampled series must stay ordered")
	}
}

func TestDownsampleSmallPassthrough(t *testing.T) {
	s := &Series{Points: []Point{{1, 1}, {2, 2}}}
	d := Downsample(s, 10)
	if d.Len() != 2 {
		t.Fatalf("len = %d, want 2", d.Len())
	}
}
