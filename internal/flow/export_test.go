package flow

import "repro/internal/netem"

// visited counts the flows on m's link of p that the last flush's BFS
// reached: those stamped with its epoch.
func (m *Model) visited(p *netem.Pipe) int {
	n := 0
	if l := m.linkOf(p); l != nil {
		for _, f := range l.flows {
			if f.mark == m.epoch {
				n++
			}
		}
	}
	return n
}
