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

// BenchmarkSnapshotSync runs the snapshot workload — the inverse of
// the megaswarm regime: 4 clients pull a 32 MiB file in 2 MiB pieces
// over 5 connections each, with a web seed behind the swarm, under the
// flow model with a 250 ms re-rate window. Variants cover the uncapped
// baseline, symmetric 256 KiB/s token-bucket caps (the limiter, not
// the link, is the bottleneck) and the seederless cold CDN fill
// (DESIGN.md decision 12). The reported virtual-s/s tracks the cost of
// the rate-limiter pumps and the web-seed request path on top of the
// swarm machinery.
func BenchmarkSnapshotSync(b *testing.B) {
	base := Spec{
		Name:       "bench-snapshot",
		Model:      "flow",
		FlowWindow: Duration(250 * time.Millisecond),
		Horizon:    Duration(time.Hour),
		Workload: WorkloadSpec{
			Kind:        WorkloadSnapshot,
			FileSize:    32 << 20,
			Seeders:     1,
			WebSeeds:    1,
			PieceLength: 2 << 20,
			ConnCap:     5,
		},
	}
	variants := []struct {
		name string
		mut  func(*WorkloadSpec)
	}{
		{"uncapped", func(*WorkloadSpec) {}},
		{"capped", func(w *WorkloadSpec) { w.UpRate, w.DownRate = 256<<10, 256<<10 }},
		{"coldfill", func(w *WorkloadSpec) { w.Seeders = 0 }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			sp := base
			v.mut(&sp.Workload)
			sp.Groups = []GroupSpec{{Name: "peers", Class: "fast-dsl", Nodes: sp.Workload.Seeders + 4}}
			var virtual time.Duration
			for i := 0; i < b.N; i++ {
				res, err := Run(&sp, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Done != res.Total {
					b.Fatal("snapshot sync incomplete")
				}
				virtual += time.Duration(res.EndedAt)
			}
			b.ReportMetric(virtual.Seconds()/b.Elapsed().Seconds(), "virtual-s/s")
		})
	}
}
