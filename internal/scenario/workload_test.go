package scenario

import (
	"bytes"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
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

// TestWorkloadSnapshotColumns pins the exact column set each workload
// reports, so a sweep CSV column can neither silently disappear nor
// silently appear, and the conditional ones keep their conditions: the
// firewall columns and the classifier label only under a firewall, the
// completion means only when some client finished.
func TestWorkloadSnapshotColumns(t *testing.T) {
	always := []string{"ended-s"}
	counters := []string{"net-sent", "net-delivered", "net-dropped", "net-retransmits", "net-bytes",
		"kernel-events", "kernel-switches", "kernel-spawns"}
	firewall := []string{"net-rule-denied", "fw-evals", "fw-visited"}
	done := []string{"clients-done", "done-fraction", "last-completion-s"}
	swarm := append([]string{"mean-completion-s", "goodput-mbps"}, done...)
	labels := []string{"scenario", "workload", "model", "seed"}
	group := []GroupSpec{{Name: "g", Class: "lan", Nodes: 6}}
	cases := []struct {
		name   string
		sp     Spec
		values []string
		counts []string
		labels []string
	}{
		{"swarm", Spec{Workload: WorkloadSpec{Kind: WorkloadSwarm, FileSize: 256 << 10}}, swarm, nil, nil},
		{"churn-swarm", Spec{Workload: WorkloadSpec{Kind: WorkloadChurnSwarm, FileSize: 256 << 10}},
			append([]string{"stable-done", "churn-done"}, swarm...), []string{"arrivals", "departures"}, nil},
		{"snapshot", Spec{Workload: WorkloadSpec{Kind: WorkloadSnapshot, FileSize: 1 << 20, PieceLength: 256 << 10, WebSeeds: 1}},
			swarm, []string{"webseed-bytes"}, nil},
		{"dht", Spec{Workload: WorkloadSpec{Kind: WorkloadDHT, Lookups: 8}},
			[]string{"avg-hops", "avg-latency-ms", "p90-latency-ms", "lookups-done"}, []string{"timeouts"}, nil},
		{"gossip", Spec{Workload: WorkloadSpec{Kind: WorkloadGossip}}, []string{"coverage", "t50-s", "t100-s"}, []string{"pushes"}, nil},
		{"ping", Spec{Workload: WorkloadSpec{Kind: WorkloadPing}}, []string{"rtt-avg-ms", "rtt-min-ms", "rtt-max-ms"}, nil, nil},
		{"firewalled swarm", Spec{FillerRules: 100, Workload: WorkloadSpec{Kind: WorkloadSwarm, FileSize: 256 << 10}},
			swarm, firewall, []string{"classifier"}},
		{"unfinished swarm", Spec{Horizon: Duration(time.Second), Workload: WorkloadSpec{Kind: WorkloadSwarm, FileSize: 256 << 10}},
			done, nil, nil},
	}
	sorted := func(parts ...[]string) []string { return slices.Sorted(slices.Values(slices.Concat(parts...))) }
	for _, tc := range cases {
		sp := tc.sp
		sp.Name, sp.Groups = "cols", group
		res, err := Run(&sp, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, want := slices.Sorted(maps.Keys(res.Snapshot.Values)), sorted(always, tc.values); !slices.Equal(got, want) {
			t.Errorf("%s: values %v, want %v", tc.name, got, want)
		}
		if got, want := slices.Sorted(maps.Keys(res.Snapshot.Counters)), sorted(counters, tc.counts); !slices.Equal(got, want) {
			t.Errorf("%s: counters %v, want %v", tc.name, got, want)
		}
		if got, want := slices.Sorted(maps.Keys(res.Snapshot.Labels)), sorted(labels, tc.labels); !slices.Equal(got, want) {
			t.Errorf("%s: labels %v, want %v", tc.name, got, want)
		}
	}
}

// TestCorpusSnapshots regenerates testdata/corpus_snapshots.csv — every
// corpus scenario's Result.Snapshot, recorded while the columns were
// still copied by hand beside the registry — byte for byte, and checks
// that each column is its family's value in the run's final registry
// snapshot, with no column that no family names.
func TestCorpusSnapshots(t *testing.T) {
	var snaps []*metrics.Snapshot
	for _, sp := range Corpus() {
		res, err := Run(&sp, Options{})
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		snaps = append(snaps, res.Snapshot)
		cols := 0
		for _, f := range res.Obs.Families {
			if f.Column == "" {
				continue
			}
			cols++
			var got float64
			var ok bool
			if f.Kind == obs.KindCounter {
				var n uint64
				n, ok = res.Snapshot.Counters[f.Column]
				got = float64(n)
			} else {
				got, ok = res.Snapshot.Values[f.Column]
			}
			if want := res.Obs.Total(f.Name); !ok || got != want {
				t.Errorf("%s: column %s = %v (present %v), family %s = %v", sp.Name, f.Column, got, ok, f.Name, want)
			}
		}
		if n := len(res.Snapshot.Values) + len(res.Snapshot.Counters); n != cols {
			t.Errorf("%s: %d columns, %d families name one", sp.Name, n, cols)
		}
	}
	var buf bytes.Buffer
	if err := metrics.WriteSnapshotsCSV(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/corpus_snapshots.csv")
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(wantLines)) {
		if i >= len(got) || i >= len(wantLines) || got[i] != wantLines[i] {
			t.Fatalf("corpus snapshots differ from the recorded CSV at line %d:\n got %q\nwant %q",
				i+1, at(got, i), at(wantLines, i))
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<eof>"
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
