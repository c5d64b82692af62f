package bt_test

import (
	"testing"
	"time"

	"repro/internal/bt"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestRequestCountsAudit runs corpus swarms that reach endgame, chokes,
// partitions, churn and request timeouts, and checks every client's
// request bookkeeping (Client.AuditRequests) every 500 ms of virtual
// time and at the end of the run. It also requires that some audit saw
// a block requested from two peers at once, so endgame duplication is
// among the states checked.
func TestRequestCountsAudit(t *testing.T) {
	var clients []*bt.Client
	defer bt.SetAuditHook(func(c *bt.Client) { clients = append(clients, c) })()
	for _, name := range []string{
		"modem-heavy-endgame",
		"transatlantic-partition-heal",
		"churn-storm",
		"snapshot-flash-crowd-capped",
	} {
		sp, ok := scenario.ByName(name)
		if !ok {
			t.Fatalf("no corpus scenario %q", name)
		}
		clients = clients[:0]
		audits, dup := 0, false
		audit := func(at sim.Time) {
			audits++
			for _, c := range clients {
				if err := c.AuditRequests(); err != nil {
					t.Fatalf("%s at %v: %v", name, at, err)
				}
				dup = dup || c.MaxRequests() > 1
			}
		}
		res, err := scenario.Run(&sp, scenario.Options{
			SampleInterval: 500 * time.Millisecond,
			OnSample:       func(at sim.Time, _ *obs.Snapshot) { audit(at) },
		})
		if err != nil {
			t.Fatal(err)
		}
		audit(res.EndedAt)
		if audits < 100 || len(clients) == 0 {
			t.Errorf("%s: %d audits over %d clients", name, audits, len(clients))
		}
		if !dup {
			t.Errorf("%s: no audit saw an endgame duplicate", name)
		}
	}
}
