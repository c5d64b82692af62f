package scenario

import (
	"testing"
	"time"
)

// churnSpec is the E3 experiment at test size: clients DSL peers
// behind 2 seeders, half of them churning.
func churnSpec(clients int, fileSize int64) *Spec {
	return &Spec{
		Name:    "test-churn",
		Horizon: Duration(6 * time.Hour),
		Groups:  []GroupSpec{{Name: "peers", Class: "dsl", Nodes: 2 + clients}},
		Workload: WorkloadSpec{
			Kind:          WorkloadChurnSwarm,
			FileSize:      fileSize,
			Seeders:       2,
			StartInterval: Duration(2 * time.Second),
		},
	}
}

func TestChurnSwarmStableClientsComplete(t *testing.T) {
	res, err := Run(churnSpec(12, 1<<20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Snapshot.Values["stable-done"]; got != 6 {
		t.Errorf("stable clients: %v/6 done — churn must not break the stable swarm", got)
	}
	if res.Arrivals == 0 || res.Departures == 0 {
		t.Errorf("no churn happened: %d arrivals, %d departures", res.Arrivals, res.Departures)
	}
}

func TestChurnSwarmChurnersEventuallyFinish(t *testing.T) {
	// With sessions much longer than the download and short downtimes,
	// even churning clients complete (resume makes progress durable).
	sp := churnSpec(8, 1<<20)
	sp.Workload.Session = Duration(10 * time.Minute)
	sp.Workload.Downtime = Duration(30 * time.Second)
	res, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Snapshot.Values["churn-done"]; got != 4 {
		t.Errorf("churners done = %v/4 with generous sessions", got)
	}
	if res.Done != res.Total {
		t.Errorf("done %d/%d", res.Done, res.Total)
	}
}

func TestChurnSwarmHarshChurnStillProgresses(t *testing.T) {
	// Short sessions: churners may not finish, but the run must stay
	// stable and every churner must have cycled at least once.
	sp := churnSpec(10, 2<<20)
	sp.Horizon = Duration(time.Hour)
	sp.Workload.Session = Duration(45 * time.Second)
	sp.Workload.Downtime = Duration(45 * time.Second)
	res, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Values["stable-done"] == 0 {
		t.Error("no stable client finished under harsh churn")
	}
	if res.Departures < 5 {
		t.Errorf("departures = %d, want at least one per churner (5)", res.Departures)
	}
}

// TestFillerRulesCostEveryMessage: filler_rules alone enables the
// firewall, the linear scan visits the padding on every evaluation and
// the run ends later for it; the indexed classifier visits none.
func TestFillerRulesCostEveryMessage(t *testing.T) {
	run := func(rules int, classifier string) *Result {
		sp := testSwarmSpec()
		sp.FillerRules, sp.Classifier = rules, classifier
		res, err := Run(sp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Done != res.Total {
			t.Fatalf("swarm incomplete under %d %s rules", rules, classifier)
		}
		return res
	}
	bare, linear, indexed := run(0, ""), run(20000, ""), run(20000, "indexed")
	if _, firewalled := bare.Snapshot.Labels["classifier"]; firewalled {
		t.Error("a spec without rules grew a firewall")
	}
	evals := linear.Snapshot.Counters["fw-evals"]
	if evals == 0 || linear.Snapshot.Counters["fw-visited"] != 20000*evals {
		t.Errorf("linear scan visited %d rules over %d evaluations, want 20000 each",
			linear.Snapshot.Counters["fw-visited"], evals)
	}
	if linear.EndedAt <= bare.EndedAt {
		t.Errorf("20k linear rules ended at %v, want later than the bare %v", linear.EndedAt, bare.EndedAt)
	}
	if v := indexed.Snapshot.Counters["fw-visited"]; v != 0 {
		t.Errorf("indexed classifier visited %d filler rules, want 0", v)
	}
}

// TestWorkloadSnapshotColumns pins the output-only metrics each
// workload reports, so a sweep CSV column cannot silently disappear.
func TestWorkloadSnapshotColumns(t *testing.T) {
	always := []string{"ended-s"}
	counters := []string{"net-sent", "net-delivered", "net-dropped", "net-retransmits", "net-bytes",
		"kernel-events", "kernel-switches", "kernel-spawns"}
	swarm := []string{"clients-done", "done-fraction", "last-completion-s", "mean-completion-s", "goodput-mbps"}
	group := []GroupSpec{{Name: "g", Class: "lan", Nodes: 6}}
	cases := []struct {
		w      WorkloadSpec
		values []string
		counts []string
	}{
		{WorkloadSpec{Kind: WorkloadSwarm, FileSize: 256 << 10}, swarm, nil},
		{WorkloadSpec{Kind: WorkloadChurnSwarm, FileSize: 256 << 10},
			append([]string{"stable-done", "churn-done"}, swarm...), []string{"arrivals", "departures"}},
		{WorkloadSpec{Kind: WorkloadSnapshot, FileSize: 1 << 20, PieceLength: 256 << 10, WebSeeds: 1},
			swarm, []string{"webseed-bytes"}},
		{WorkloadSpec{Kind: WorkloadDHT, Lookups: 8},
			[]string{"avg-hops", "avg-latency-ms", "p90-latency-ms", "lookups-done"}, []string{"timeouts"}},
		{WorkloadSpec{Kind: WorkloadGossip}, []string{"coverage", "t50-s", "t100-s"}, []string{"pushes"}},
	}
	for _, tc := range cases {
		res, err := Run(&Spec{Name: "cols", Groups: group, Workload: tc.w}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.w.Kind, err)
		}
		for _, k := range append(always, tc.values...) {
			if _, ok := res.Snapshot.Values[k]; !ok {
				t.Errorf("%s: value %q not reported", tc.w.Kind, k)
			}
		}
		for _, k := range append(counters, tc.counts...) {
			if _, ok := res.Snapshot.Counters[k]; !ok {
				t.Errorf("%s: counter %q not reported", tc.w.Kind, k)
			}
		}
	}
}
