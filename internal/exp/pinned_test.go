package exp_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/exp"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestDriversMatchParent pins every driver that assembles its own
// platform — BindOverhead, Fig 6 under both classifiers, Fig 7, ping
// cells and repro.Lab — to the exact values they measured when each
// wired kernel, network and cluster by hand (seed 1, 10 pings). The
// range checks of the per-driver tests would pass a drifted assembly.
func TestDriversMatchParent(t *testing.T) {
	fig6 := func(cf netem.Classifier) (string, error) {
		points, err := exp.Fig6([]int{0, 10000, 50000}, 10, 1, cf)
		var out []string
		for _, pt := range points {
			out = append(out, fmt.Sprintf("%d:%v/%v/%v", pt.Rules, pt.Stats.Avg, pt.Stats.Min, pt.Stats.Max))
		}
		return strings.Join(out, " "), err
	}
	ping := func(rules int) (string, error) {
		g := exp.Grid{Experiment: exp.ExpPing, Rules: []int{rules}}
		if rules > 0 {
			g.Classifiers = []netem.Classifier{netem.ClassifierLinear}
		}
		cells, err := g.Cells()
		if err != nil {
			return "", err
		}
		s, err := exp.RunCell(cells[0])
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
		want string
	}{
		{"bind", func() (string, error) {
			res, err := exp.BindOverhead()
			return fmt.Sprintf("%v plain, %v intercepted", res.Plain, res.Intercepted), err
		}, "10.22µs plain, 10.79µs intercepted"},
		{"fig6 linear", func() (string, error) { return fig6(netem.ClassifierLinear) },
			"0:426.884µs/426.884µs/426.884µs 10000:1.386884ms/1.386884ms/1.386884ms 50000:5.226884ms/5.226884ms/5.226884ms"},
		{"fig6 indexed", func() (string, error) { return fig6(netem.ClassifierIndexed) },
			"0:426.884µs/426.884µs/426.884µs 10000:426.884µs/426.884µs/426.884µs 50000:426.884µs/426.884µs/426.884µs"},
		{"fig7", func() (string, error) {
			res, err := exp.Fig7(14, 1)
			return fmt.Sprintf("%v over %d hosts", res.RTT, res.Hosts), err
		}, "851.31802ms over 2750 hosts"},
		{"ping 0 rules", func() (string, error) { return ping(0) },
			"dsl 132.768/132.768/132.768 ms, 20 evals, 0 visited"},
		{"ping 10000 rules linear", func() (string, error) { return ping(10000) },
			"dsl 133.728/133.728/133.728 ms, 20 evals, 200000 visited"},
		{"lab", func() (string, error) {
			lab, err := repro.NewLab(repro.LabConfig{Seed: 1, Nodes: 2, Class: topo.DSL})
			if err != nil {
				return "", err
			}
			var rtt time.Duration
			lab.Go("pinger", func(p *sim.Proc) {
				rtt, _ = lab.Host(0).Ping(p, lab.Host(1).Addr(), 56, time.Second)
			})
			err = lab.Run()
			return rtt.String(), err
		}, "132.768ms"},
	} {
		got, err := c.run()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if got != c.want {
			t.Errorf("%s moved:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
