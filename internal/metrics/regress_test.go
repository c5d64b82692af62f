package metrics

import "testing"

func seq(n int) *Series {
	s := &Series{Name: "seq"}
	for i := 0; i < n; i++ {
		s.Add(float64(i), float64(i))
	}
	return s
}

// TestDownsampleBoundaries pins the index arithmetic at the edges where
// float rounding used to threaten a duplicated final point.
func TestDownsampleBoundaries(t *testing.T) {
	check := func(total, n int) {
		t.Helper()
		s := seq(total)
		d := Downsample(s, n)
		wantLen := n
		if n <= 0 || total <= n {
			wantLen = total
		}
		if d.Len() != wantLen {
			t.Fatalf("Downsample(%d, %d): len %d, want %d", total, n, d.Len(), wantLen)
		}
		if d.Len() == 0 {
			return
		}
		// The last point is always the original endpoint.
		if d.Points[d.Len()-1] != s.Points[total-1] {
			t.Fatalf("Downsample(%d, %d): last point %+v", total, n, d.Points[d.Len()-1])
		}
		// Indices strictly increase: no point repeats.
		for i := 1; i < d.Len(); i++ {
			if d.Points[i].X <= d.Points[i-1].X {
				t.Fatalf("Downsample(%d, %d): duplicate/reordered points %v", total, n, d.Points)
			}
		}
		if n > 1 && total > n && d.Points[0] != s.Points[0] {
			t.Fatalf("Downsample(%d, %d): first point %+v", total, n, d.Points[0])
		}
	}

	check(100, 2)    // minimal kept set: first and last only
	check(3, 2)      // Len() == n+1, the tightest non-trivial reduction
	check(101, 100)  // Len() == n+1 at scale: every rounded index distinct
	check(1000, 999) // one-point reduction
	check(5000, 50)  // the .dat use case
	check(10, 1)     // n == 1 keeps the endpoint, no NaN/div-zero
	check(5, 10)     // fewer points than n: untouched copy
	check(5, 5)      // exact fit: untouched copy
	check(7, 0)      // n <= 0: untouched copy
}

// TestDownsampleSecondToLastDistinct is the focused regression: for a
// wide range of sizes the second-to-last rounded index must stay below
// the forced final index.
func TestDownsampleSecondToLastDistinct(t *testing.T) {
	for total := 3; total <= 400; total++ {
		for _, n := range []int{2, 3, total / 2, total - 1} {
			if n < 2 || total <= n {
				continue
			}
			d := Downsample(seq(total), n)
			if d.Points[n-1] == d.Points[n-2] {
				t.Fatalf("Downsample(%d, %d) duplicated the final point", total, n)
			}
		}
	}
}
