package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/pintest"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// foldedPolicySpec is Fig 8 at 1/20 scale folded four virtual nodes to
// a machine, with a padded firewall and two deny episodes: the tracker
// cut off from the peers group for 30 s, and one client's outbound
// traffic denied until a del-rule lifts it. Every message crosses the
// cluster fabric (machine NICs, CPU pipes, the machine tables' scans),
// and every transmission attempt the network-wide table's scan and,
// inside the episodes, its deny.
func foldedPolicySpec(model string) scenario.Spec {
	sp := ScaleSpec(Fig8Spec(), 20)
	sp.Name = "fig8-folded-policy-" + model
	sp.Folding = 4
	sp.Model = model
	sp.FillerRules = 500
	sp.Timeline = []scenario.EventSpec{
		{At: scenario.Duration(20 * time.Second), Action: scenario.ActionDenyPfx,
			Groups: []string{"peers"}, For: scenario.Duration(30 * time.Second)},
		{At: scenario.Duration(40 * time.Second), Action: scenario.ActionAddRule,
			Src: "10.0.0.6/32", Rule: "deny", ID: 7},
		{At: scenario.Duration(41 * time.Second), Action: scenario.ActionDelRule, ID: 7},
	}
	return sp
}

// TestFoldedTraceMatchesParent pins the whole rendered trace of a
// folded run with firewall policy, under the pipe and the flow model,
// to the SHA-256 measured before a message's path was built once per
// message instead of once per attempt. No golden corpus scenario folds,
// so this is the digest that covers the cluster fabric.
func TestFoldedTraceMatchesParent(t *testing.T) {
	for _, model := range []string{"pipe", "flow"} {
		t.Run(model, func(t *testing.T) {
			t.Parallel()
			sp := foldedPolicySpec(model)
			if err := sp.WithDefaults().Validate(); err != nil {
				t.Fatal(err)
			}
			lg := trace.New(0)
			res, err := scenario.Run(&sp, scenario.Options{Trace: lg})
			if err != nil {
				t.Fatal(err)
			}
			if lg.Count("net.deny") == 0 {
				t.Fatal("no attempt was denied")
			}
			h := sha256.New()
			if err := lg.Render(h); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "kernel %+v net %+v ended %v done %d/%d\n",
				res.Kernel, res.Net, res.EndedAt, res.Done, res.Total)
			got := hex.EncodeToString(h.Sum(nil))
			t.Logf("%s: digest %s, %d/%d done, ended %v, net %+v, %d net.deny", model, got, res.Done, res.Total, res.EndedAt, res.Net, lg.Count("net.deny"))
			pintest.Check(t, sp.Name, got)
		})
	}
}
