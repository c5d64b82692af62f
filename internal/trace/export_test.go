package trace

import "repro/internal/sim"

// Between returns retained events within [from, to).
func (l *Log) Between(from, to sim.Time) []Event {
	return l.collect(func(r *record) bool { return r.at >= from && r.at < to })
}
