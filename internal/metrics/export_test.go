package metrics

import "sort"

// SortByX orders the samples by x coordinate (stable).
func (s *Series) SortByX() {
	sort.SliceStable(s.Points, func(i, j int) bool { return s.Points[i].X < s.Points[j].X })
}

// MinY and MaxY return the sample extremes; zero for empty series.
func (s *Series) MinY() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	m := s.Points[0].Y
	for _, p := range s.Points {
		if p.Y < m {
			m = p.Y
		}
	}
	return m
}

func (s *Series) MaxY() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	m := s.Points[0].Y
	for _, p := range s.Points {
		if p.Y > m {
			m = p.Y
		}
	}
	return m
}

// LastY returns the final sample's y value (0 for empty series).
func (s *Series) LastY() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].Y
}

// Spread returns Max-Min.
func (s Summary) Spread() float64 { return s.Max - s.Min }
