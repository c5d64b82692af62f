package bt_test

import (
	"testing"
	"time"

	"repro/internal/bt"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// auditRun runs sp with every client's bookkeeping audited
// (Client.AuditRequests) every interval of virtual time and at the end
// of the run, and then checks the torrent's interned messages
// (Client.CheckInterned). It returns the number of audits, the clients audited and
// whether some audit saw a block requested from two peers at once.
func auditRun(t *testing.T, sp *scenario.Spec, interval time.Duration) (audits, clients int, dup bool) {
	t.Helper()
	var cs []*bt.Client
	defer bt.SetAuditHook(func(c *bt.Client) { cs = append(cs, c) })()
	audit := func(at sim.Time) {
		audits++
		for _, c := range cs {
			if err := c.AuditRequests(); err != nil {
				t.Fatalf("%s at %v: %v", sp.Name, at, err)
			}
			dup = dup || c.MaxRequests() > 1
		}
	}
	res, err := scenario.Run(sp, scenario.Options{
		SampleInterval: interval,
		OnSample:       func(at sim.Time, _ *obs.Snapshot) { audit(at) },
	})
	if err != nil {
		t.Fatal(err)
	}
	audit(res.EndedAt)
	// Every message but a bitfield is one shared value per torrent: a
	// handler that wrote through one would have changed it for the rest
	// of the run.
	for _, c := range cs {
		if err := c.CheckInterned(); err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
	}
	return audits, len(cs), dup
}

// TestRequestCountsAudit runs corpus swarms that reach endgame, chokes,
// partitions, churn and request timeouts, and checks every client's
// request bookkeeping (Client.AuditRequests) every 500 ms of virtual
// time and at the end of the run. It also requires that some audit saw
// a block requested from two peers at once, so endgame duplication is
// among the states checked.
func TestRequestCountsAudit(t *testing.T) {
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
		audits, clients, dup := auditRun(t, &sp, 500*time.Millisecond)
		if audits < 100 || clients == 0 {
			t.Errorf("%s: %d audits over %d clients", name, audits, clients)
		}
		if !dup {
			t.Errorf("%s: no audit saw an endgame duplicate", name)
		}
	}
}

// TestInternedMessagesStayCanonical runs the corpus swarm that pulls
// from a web seed through auditRun, so its last check also covers the
// piece messages a web seed answers with. The swarms of
// TestRequestCountsAudit take the same check.
func TestInternedMessagesStayCanonical(t *testing.T) {
	sp, ok := scenario.ByName("snapshot-cold-cdn-fill")
	if !ok {
		t.Fatal("no corpus scenario snapshot-cold-cdn-fill")
	}
	if _, clients, _ := auditRun(t, &sp, 10*time.Second); clients == 0 {
		t.Error("no client audited")
	}
}

// TestRejectedPeerLeavesNoAvailability audits two swarms that turn
// peers away at join. A connection's buffered Bitfield reaches the
// client before its join event does, so a peer rejected at join has
// already had its pieces counted; the rejection must take them out of
// the picker again, or the audit's availability check fails. The lan
// snapshot's one-peer cap rejects at MaxPeers; Fig 8 at scale 8 on
// windowed flow rejects duplicates, where two peers dialed each other.
func TestRejectedPeerLeavesNoAvailability(t *testing.T) {
	capped := scenario.Spec{
		Name:    "capped-lan-rejects",
		Seed:    1,
		Horizon: scenario.Duration(time.Hour),
		Groups:  []scenario.GroupSpec{{Name: "lan", Class: "lan", Nodes: 10}},
		Workload: scenario.WorkloadSpec{
			Kind:          scenario.WorkloadSnapshot,
			Seeders:       3,
			ConnCap:       1,
			FileSize:      2 << 20,
			PieceLength:   256 << 10,
			StartInterval: scenario.Duration(time.Millisecond),
		},
	}
	dup := exp.ScaleSpec(exp.Fig8Spec(), 8)
	dup.Model, dup.FlowWindow = "flow", scenario.Duration(250*time.Millisecond)
	for _, sp := range []scenario.Spec{capped, dup} {
		audits, clients, _ := auditRun(t, &sp, time.Second)
		if audits < 2 || clients == 0 {
			t.Errorf("%s: %d audits over %d clients", sp.Name, audits, clients)
		}
	}
}
