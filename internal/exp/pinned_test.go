package exp_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/pintest"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vnet"
)

// TestDriversMatchParent pins every driver that assembles its own
// platform — BindOverhead, Fig 7, ping cells and a two-node DSL
// platform on scenario.Assemble — to the exact values they measured
// when each wired kernel, network and cluster by hand (seed 1, 10
// pings). The range checks of the per-driver tests would pass a
// drifted assembly. The gige ping cells are Fig 6 under both
// classifiers, at the values exp.Fig6 measured before the figure
// became a ping grid; the dsl cells moved when ping cells were folded
// onto two machines, whose NICs and CPUs a round trip now crosses.
func TestDriversMatchParent(t *testing.T) {
	ping := func(class topo.LinkClass, rules int, cf netem.Classifier) (*metrics.Snapshot, error) {
		g := exp.Grid{Experiment: exp.ExpPing, Classes: []topo.LinkClass{class}, Rules: []int{rules}}
		if rules > 0 {
			g.Classifiers = []netem.Classifier{cf}
		}
		cells, err := g.Cells()
		if err != nil {
			return nil, err
		}
		return exp.RunCell(cells[0])
	}
	fig6 := func(cf netem.Classifier) (string, error) {
		ms := func(v float64) time.Duration { return time.Duration(math.Round(v * 1e6)) }
		var out []string
		for _, rules := range []int{0, 10000, 50000} {
			s, err := ping(topo.GigE, rules, cf)
			if err != nil {
				return "", err
			}
			out = append(out, fmt.Sprintf("%d:%v/%v/%v", rules,
				ms(s.Values["rtt-avg-ms"]), ms(s.Values["rtt-min-ms"]), ms(s.Values["rtt-max-ms"])))
		}
		return strings.Join(out, " "), nil
	}
	dsl := func(rules int) (string, error) {
		s, err := ping(topo.DSL, rules, netem.ClassifierLinear)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s %g/%g/%g ms, %d evals, %d visited", s.Labels["class"],
			s.Values["rtt-avg-ms"], s.Values["rtt-min-ms"], s.Values["rtt-max-ms"],
			s.Counters["fw-evals"], s.Counters["fw-visited"]), nil
	}
	for _, c := range []struct {
		name string
		run  func() (string, error)
	}{
		{"bind", func() (string, error) {
			res, err := exp.BindOverhead()
			return fmt.Sprintf("%v plain, %v intercepted", res.Plain, res.Intercepted), err
		}},
		{"fig6 linear (gige ping cells)", func() (string, error) { return fig6(netem.ClassifierLinear) }},
		{"fig6 indexed (gige ping cells)", func() (string, error) { return fig6(netem.ClassifierIndexed) }},
		{"fig7", func() (string, error) {
			res, err := exp.Fig7(1)
			return fmt.Sprintf("%v over %d hosts", res.RTT, res.Hosts), err
		}},
		{"ping 0 rules", func() (string, error) { return dsl(0) }},
		{"ping 10000 rules linear", func() (string, error) { return dsl(10000) }},
		{"lab", func() (string, error) {
			a, err := scenario.Assemble(1, topo.Uniform(2, topo.DSL), vnet.DefaultConfig(), 0)
			if err != nil {
				return "", err
			}
			var rtt time.Duration
			a.Kernel.Go("pinger", func(p *sim.Proc) {
				rtt, _ = a.Hosts[0].Ping(p, a.Hosts[1].Addr(), 56, time.Second)
			})
			err = a.Kernel.Run()
			return rtt.String(), err
		}},
	} {
		got, err := c.run()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		pintest.Check(t, c.name, got)
	}
}
