package scenario

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestCorpusValidates: every committed scenario must default and
// validate cleanly, names must be unique, and the corpus must hold at
// least the 8 scenarios the catalogue promises.
func TestCorpusValidates(t *testing.T) {
	if len(corpus) < 8 {
		t.Fatalf("corpus has %d scenarios, want >= 8", len(corpus))
	}
	seen := map[string]bool{}
	for _, sp := range corpus {
		if seen[sp.Name] {
			t.Errorf("duplicate scenario name %q", sp.Name)
		}
		seen[sp.Name] = true
		if err := sp.WithDefaults().Validate(); err != nil {
			t.Errorf("scenario %s: %v", sp.Name, err)
		}
	}
	for _, name := range Names() {
		if _, ok := ByName(name); !ok {
			t.Errorf("Names lists %q but ByName misses it", name)
		}
	}
}

// TestJSONRoundTrip: a spec marshalled to JSON loads back identical,
// including duration strings.
func TestJSONRoundTrip(t *testing.T) {
	for _, sp := range Corpus() {
		data, err := json.MarshalIndent(sp, "", "  ")
		if err != nil {
			t.Fatalf("%s: marshal: %v", sp.Name, err)
		}
		back, err := Load(data)
		if err != nil {
			t.Fatalf("%s: load: %v\n%s", sp.Name, err, data)
		}
		if !reflect.DeepEqual(&sp, back) {
			t.Errorf("%s: round trip diverged:\nhave %+v\nwant %+v", sp.Name, back, sp)
		}
	}
}

// TestDurationJSON covers both accepted encodings and the error path.
func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"90s"`), &d); err != nil || d.D() != 90*time.Second {
		t.Errorf("string form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`1500000000`), &d); err != nil || d.D() != 1500*time.Millisecond {
		t.Errorf("number form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`"not-a-duration"`), &d); err == nil {
		t.Errorf("bad duration accepted")
	}
	if err := json.Unmarshal([]byte(`{}`), &d); err == nil {
		t.Errorf("object accepted as duration")
	}
}

// TestValidationRejects drives the validator over representative
// malformed specs.
func TestValidationRejects(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Name:     "t",
			Groups:   []GroupSpec{{Name: "g", Class: "dsl", Nodes: 4}},
			Workload: WorkloadSpec{Kind: WorkloadGossip},
		}
	}
	workload := func(w WorkloadSpec) func(*Spec) { return func(s *Spec) { s.Workload = w } }
	event := func(ev EventSpec) func(*Spec) {
		return func(s *Spec) {
			s.Groups = append(s.Groups, GroupSpec{Name: "h", Class: "dsl", Nodes: 4})
			s.Timeline = []EventSpec{ev}
		}
	}
	sec, g, h := Duration(time.Second), []string{"g"}, []string{"h"}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "missing name"},
		{"no groups", func(s *Spec) { s.Groups = nil }, "no groups"},
		{"bad class", func(s *Spec) { s.Groups[0].Class = "isdn" }, "unknown class"},
		{"zero nodes", func(s *Spec) { s.Groups[0].Nodes = 0 }, "nodes outside"},
		{"huge nodes", func(s *Spec) { s.Groups[0].Nodes = 1 << 20 }, "nodes outside"},
		{"bad prefix", func(s *Spec) { s.Groups[0].Prefix = "nope" }, "prefix"},
		{"dup group", func(s *Spec) { s.Groups = append(s.Groups, s.Groups[0]) }, "duplicate group"},
		{"bad model", func(s *Spec) { s.Model = "quantum" }, "unknown link model"},
		{"bad workload", func(s *Spec) { s.Workload.Kind = "mapreduce" }, "unknown workload"},
		{"no workload", func(s *Spec) { s.Workload.Kind = "" }, "missing workload"},
		{"bad latency group", func(s *Spec) { s.Latencies = []LatencySpec{{A: "g", B: "x"}} }, "unknown groups"},
		{"bad action", func(s *Spec) {
			s.Timeline = []EventSpec{{Action: "reboot", Groups: []string{"g"}}}
		}, "unknown action"},
		{"negative at", func(s *Spec) {
			s.Timeline = []EventSpec{{At: Duration(-time.Second), Action: ActionLinkDown, Groups: []string{"g"}}}
		}, "negative instant"},
		{"partition unknown group", func(s *Spec) {
			s.Timeline = []EventSpec{{Action: ActionPartition, A: []string{"g"}, B: []string{"x"}}}
		}, "unknown group"},
		{"partition overlap", func(s *Spec) {
			s.Timeline = []EventSpec{{Action: ActionPartition, A: []string{"g"}, B: []string{"g"}}}
		}, "both sides"},
		{"loss without duration", func(s *Spec) {
			s.Timeline = []EventSpec{{Action: ActionLoss, Groups: []string{"g"}, Loss: 0.5}}
		}, "positive duration"},
		{"loss out of range", func(s *Spec) {
			s.Timeline = []EventSpec{{Action: ActionLoss, Groups: []string{"g"}, Loss: 1.5, For: Duration(time.Second)}}
		}, "outside [0,1]"},
		{"set-class unknown class", func(s *Spec) {
			s.Timeline = []EventSpec{{Action: ActionSetClass, Groups: []string{"g"}, Class: "isdn"}}
		}, "unknown class"},
		{"for on set-class", func(s *Spec) {
			s.Timeline = []EventSpec{{Action: ActionSetClass, Groups: []string{"g"}, Class: "dsl", For: Duration(time.Second)}}
		}, "does not use for"},
		{"for on heal", func(s *Spec) {
			s.Timeline = []EventSpec{{Action: ActionHeal, A: []string{"g"}, B: []string{"g"}, For: Duration(time.Second)}}
		}, "does not use for"},
		{"path separator in name", func(s *Spec) { s.Name = "a/b" }, "only letters"},
		{"traversal in name", func(s *Spec) { s.Name = "../x" }, "only letters"},
		{"bad classifier", func(s *Spec) { s.Classifier = "hash" }, "unknown classifier"},
		{"negative filler rules", func(s *Spec) { s.FillerRules = -1 }, "filler rules outside"},
		{"too many filler rules", func(s *Spec) { s.FillerRules = MaxRuleCopies + 1 }, "filler rules outside"},
		{"negative folding", func(s *Spec) { s.Folding = -1 }, "negative folding"},
		{"add-rule bad body", func(s *Spec) {
			s.Timeline = []EventSpec{{Action: ActionAddRule, Rule: "fwd"}}
		}, "unknown rule body"},
		{"add-rule bad side", func(s *Spec) {
			s.Timeline = []EventSpec{{Action: ActionAddRule, Rule: "count", Src: "nowhere"}}
		}, "neither a group nor a prefix"},
		{"add-rule too many copies", func(s *Spec) {
			s.Timeline = []EventSpec{{Action: ActionAddRule, Rule: "count", Copies: MaxRuleCopies + 1}}
		}, "copies outside"},
		{"add-rule with for", func(s *Spec) {
			s.Timeline = []EventSpec{{Action: ActionAddRule, Rule: "count", For: Duration(time.Second)}}
		}, "does not use for"},
		{"del-rule without id", func(s *Spec) {
			s.Timeline = []EventSpec{{Action: ActionDelRule}}
		}, "positive rule id"},
		{"deny-prefix unknown group", func(s *Spec) {
			s.Timeline = []EventSpec{{Action: ActionDenyPfx, Groups: []string{"x"}}}
		}, "unknown group"},
		{"rule fields on non-rule action", func(s *Spec) {
			s.Timeline = []EventSpec{{Action: ActionDenyPfx, Groups: []string{"g"}, Rule: "deny"}}
		}, "deny-prefix does not use rule"},
		{"rule id on non-rule action", func(s *Spec) {
			s.Timeline = []EventSpec{{Action: ActionLinkDown, Groups: []string{"g"}, ID: 100}}
		}, "link-down does not use id"},
		{"permanent deny-prefix without id", func(s *Spec) {
			s.Timeline = []EventSpec{{Action: ActionDenyPfx, Groups: []string{"g"}}}
		}, "needs a pinned id"},
		{"groups on add-rule", func(s *Spec) {
			s.Timeline = []EventSpec{{Action: ActionAddRule, Rule: "deny", Groups: []string{"g"}}}
		}, "does not use groups"},
		{"negative flow window", func(s *Spec) {
			s.Model = "flow"
			s.FlowWindow = Duration(-time.Second)
		}, "negative flow window"},
		{"flow window without flow model", func(s *Spec) {
			s.FlowWindow = Duration(50 * time.Millisecond)
		}, "needs the flow model"},
		{"snapshot knob on gossip", func(s *Spec) {
			s.Workload.WebSeeds = 1
		}, "workload gossip does not use web_seeds"},
		{"rate cap on gossip", func(s *Spec) {
			s.Workload.DownRate = 1 << 20
		}, "workload gossip does not use down_rate"},
		// A knob the kind, or a field the action, does not read: each of
		// these used to validate and run as if the field were absent.
		{"fanout on dht", workload(WorkloadSpec{Kind: WorkloadDHT, Fanout: 5}), "workload dht does not use fanout"},
		{"lookups on gossip", workload(WorkloadSpec{Kind: WorkloadGossip, Lookups: 10}), "workload gossip does not use lookups"},
		{"lookups on swarm", workload(WorkloadSpec{Kind: WorkloadSwarm, Lookups: 10}), "workload swarm does not use lookups"},
		{"churn on swarm", workload(WorkloadSpec{Kind: WorkloadSwarm, ChurnFraction: 0.3}), "workload swarm does not use churn_fraction"},
		{"session on swarm", workload(WorkloadSpec{Kind: WorkloadSwarm, Session: 60 * sec}), "workload swarm does not use session"},
		{"file size on gossip", workload(WorkloadSpec{Kind: WorkloadGossip, FileSize: 1 << 20}), "workload gossip does not use file_size"},
		{"seeders on ping", workload(WorkloadSpec{Kind: WorkloadPing, Seeders: 1}), "workload ping does not use seeders"},
		{"start interval on dht", workload(WorkloadSpec{Kind: WorkloadDHT, StartInterval: sec}), "workload dht does not use start_interval"},
		{"churn on snapshot", workload(WorkloadSpec{Kind: WorkloadSnapshot, ChurnFraction: 0.3}), "workload snapshot does not use churn_fraction"},
		{"loss on partition", event(EventSpec{Action: ActionPartition, A: g, B: h, Loss: 0.5}), "partition does not use loss"},
		{"groups on partition", event(EventSpec{Action: ActionPartition, A: g, B: h, Groups: g}), "partition does not use groups"},
		{"side on set-class", event(EventSpec{Action: ActionSetClass, Groups: g, Class: "dsl", A: g}), "set-class does not use a"},
		{"class on loss", event(EventSpec{Action: ActionLoss, Groups: g, Loss: 0.2, For: sec, Class: "dsl"}), "loss does not use class"},
		{"loss on link-down", event(EventSpec{Action: ActionLinkDown, Groups: g, Loss: 0.5}), "link-down does not use loss"},
		{"class on deny-prefix", event(EventSpec{Action: ActionDenyPfx, Groups: g, For: sec, Class: "dsl"}), "deny-prefix does not use class"},
	}
	for _, tc := range cases {
		sp := base()
		tc.mut(sp)
		err := sp.WithDefaults().Validate()
		if err == nil {
			t.Errorf("%s: validated unexpectedly", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// And the valid combination: a positive window under the flow model.
	sp := base()
	sp.Model = "flow"
	sp.FlowWindow = Duration(50 * time.Millisecond)
	if err := sp.WithDefaults().Validate(); err != nil {
		t.Errorf("flow_window with flow model rejected: %v", err)
	}
}

// TestSnapshotValidation: the snapshot-only knobs are range-checked,
// the seederless cold fill needs a web seed, and the restart timeline
// fields compose sensibly.
func TestSnapshotValidation(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Name:     "t",
			Groups:   []GroupSpec{{Name: "g", Class: "fast-dsl", Nodes: 5}},
			Workload: WorkloadSpec{Kind: WorkloadSnapshot},
		}
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"too many web seeds", func(s *Spec) { s.Workload.WebSeeds = maxWebSeeds + 1 }, "web_seeds 17 outside [0,17)"},
		{"negative up rate", func(s *Spec) { s.Workload.UpRate = -1 }, "up_rate -1 below 0"},
		{"negative down rate", func(s *Spec) { s.Workload.DownRate = -1 }, "down_rate -1 below 0"},
		{"negative restart at", func(s *Spec) {
			s.Workload.SeedRestartAt = Duration(-time.Second)
		}, "seed_restart_at -1s below 0s"},
		{"restart without seeder", func(s *Spec) {
			s.Workload.WebSeeds = 1 // keeps WithDefaults from minting a seeder
			s.Workload.SeedRestartAt = Duration(time.Second)
		}, "needs at least one seeder"},
		{"restart down without at", func(s *Spec) {
			s.Workload.SeedRestartDown = Duration(time.Second)
		}, "seed_restart_down without seed_restart_at"},
	}
	for _, tc := range cases {
		sp := base()
		tc.mut(sp)
		err := sp.WithDefaults().Validate()
		if err == nil {
			t.Errorf("%s: validated unexpectedly", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// Valid combinations: the seederless cold fill (web seed carries
	// the swarm) and a rate-capped restart run.
	cold := base()
	cold.Workload.WebSeeds = 1
	if err := cold.WithDefaults().Validate(); err != nil {
		t.Errorf("seederless cold fill rejected: %v", err)
	}
	restart := base()
	restart.Workload.UpRate = 64 * 1024
	restart.Workload.SeedRestartAt = Duration(30 * time.Second)
	if err := restart.WithDefaults().Validate(); err != nil {
		t.Errorf("capped restart run rejected: %v", err)
	}
	if d := restart.WithDefaults().Workload.SeedRestartDown; d <= 0 {
		t.Errorf("seed_restart_down not defaulted alongside seed_restart_at: %v", d)
	}
}

// TestSwarmSeederValidation: seeders must fit in the seeder group and
// leave at least one client.
func TestSwarmSeederValidation(t *testing.T) {
	sp := &Spec{
		Name:   "t",
		Groups: []GroupSpec{{Name: "g", Class: "dsl", Nodes: 3}},
		Workload: WorkloadSpec{
			Kind: WorkloadSwarm, Seeders: 4,
		},
	}
	if err := sp.WithDefaults().Validate(); err == nil || !strings.Contains(err.Error(), "seeders outside") {
		t.Errorf("oversized seeders: %v", err)
	}
	sp.Workload.Seeders = 3
	if err := sp.WithDefaults().Validate(); err == nil || !strings.Contains(err.Error(), "no clients") {
		t.Errorf("all-seeder swarm: %v", err)
	}
	sp.Workload.SeederGroup = "nope"
	if err := sp.WithDefaults().Validate(); err == nil || !strings.Contains(err.Error(), "unknown seeder group") {
		t.Errorf("bad seeder group: %v", err)
	}
}

// testSwarmSpec is a small fast swarm scenario used by behavior tests.
func testSwarmSpec() *Spec {
	return &Spec{
		Name:    "test-swarm",
		Horizon: Duration(30 * time.Minute),
		Groups: []GroupSpec{
			{Name: "left", Class: "dsl", Nodes: 5},
			{Name: "right", Class: "dsl", Nodes: 4},
		},
		Workload: WorkloadSpec{
			Kind:        WorkloadSwarm,
			FileSize:    512 << 10,
			Seeders:     1,
			SeederGroup: "left",
		},
	}
}

// TestPartitionChangesCompletion: the same swarm with a mid-download
// partition between the seeder side and the other side must finish
// measurably later (or less completely) than without it — the
// examples/partition walkthrough as an assertion.
func TestPartitionChangesCompletion(t *testing.T) {
	baseline, err := Run(testSwarmSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Done != baseline.Total {
		t.Fatalf("baseline swarm incomplete: %d/%d", baseline.Done, baseline.Total)
	}

	parted := testSwarmSpec()
	parted.Timeline = []EventSpec{{
		At: Duration(10 * time.Second), Action: ActionPartition,
		A: []string{"left"}, B: []string{"right"}, For: Duration(120 * time.Second),
	}}
	cut, err := Run(parted, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lastOf := func(r *Result) float64 {
		var out float64
		for _, c := range r.Completions {
			if c > 0 && c.Seconds() > out {
				out = c.Seconds()
			}
		}
		return out
	}
	if cut.Done == cut.Total && lastOf(cut) <= lastOf(baseline) {
		t.Errorf("partition did not slow the swarm: baseline last=%.1fs, partitioned last=%.1fs",
			lastOf(baseline), lastOf(cut))
	}
	t.Logf("baseline %d/%d last=%.1fs; partitioned %d/%d last=%.1fs",
		baseline.Done, baseline.Total, lastOf(baseline), cut.Done, cut.Total, lastOf(cut))
}

// TestFoldingComposes: folding is one more field of a spec, not a
// separate experiment — groups, a declared latency and a timed
// partition behave on the cluster fabric as they do on the bare
// topology.
func TestFoldingComposes(t *testing.T) {
	// A ping from the one left node to the one right node crosses the
	// declared one-way latency twice, folded or not. (Folded at 4, the
	// two round trips measure 200.000384 ms apart at seed 1.)
	rtt := func(folding int, latency time.Duration) time.Duration {
		t.Helper()
		sp := &Spec{
			Name:     "folded-ping",
			Folding:  folding,
			Groups:   []GroupSpec{{Name: "left", Class: "dsl", Nodes: 1}, {Name: "right", Class: "dsl", Nodes: 1}},
			Workload: WorkloadSpec{Kind: WorkloadPing},
		}
		if latency > 0 {
			sp.Latencies = []LatencySpec{{A: "left", B: "right", OneWay: Duration(latency)}}
		}
		res, err := Run(sp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Done == 0 || res.Done != res.Total {
			t.Fatalf("folding %d: %d of %d pings answered", folding, res.Done, res.Total)
		}
		return time.Duration(math.Round(res.Snapshot.Values["rtt-avg-ms"] * 1e6))
	}
	for _, folding := range []int{0, 4} {
		near, far := rtt(folding, 0), rtt(folding, 100*time.Millisecond)
		if d := far - near; d < 200*time.Millisecond || d >= 201*time.Millisecond {
			t.Errorf("folding %d: rtt %v with a 100ms one-way latency, %v without; want 200ms more", folding, far, near)
		}
	}

	folded := func() *Spec {
		sp := testSwarmSpec()
		sp.Folding = 4
		sp.Latencies = []LatencySpec{{A: "left", B: "right", OneWay: Duration(100 * time.Millisecond)}}
		return sp
	}
	run := func(sp *Spec) *Result {
		t.Helper()
		res, err := Run(sp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Done != res.Total {
			t.Fatalf("folded swarm incomplete: %d/%d", res.Done, res.Total)
		}
		return res
	}
	whole := run(folded())
	parted := folded()
	parted.Timeline = []EventSpec{{
		At: Duration(10 * time.Second), Action: ActionPartition,
		A: []string{"left"}, B: []string{"right"}, For: Duration(120 * time.Second),
	}}
	if cut := run(parted); cut.EndedAt <= whole.EndedAt {
		t.Errorf("partition did not slow the folded swarm: ended %v, unpartitioned %v", cut.EndedAt, whole.EndedAt)
	}

	// The machines' admin block is the one address range a folded spec
	// may not pin a group into; the error names the group.
	clash := folded()
	clash.Groups[1].Prefix = "172.20.0.0/16"
	if _, err := Run(clash, Options{}); err == nil ||
		!strings.Contains(err.Error(), `group "right"`) || !strings.Contains(err.Error(), "admin block") {
		t.Errorf("pinned prefix inside the admin block: got %v", err)
	}
	clash.Folding = 0
	if _, err := Run(clash, Options{}); err != nil {
		t.Errorf("the same prefix without folding: %v", err)
	}
}

// TestTimelineFires: timeline actions must appear on the trace (the
// scenario layer's own events plus the network-layer partition record).
func TestTimelineFires(t *testing.T) {
	sp := testSwarmSpec()
	sp.Timeline = []EventSpec{
		{At: Duration(5 * time.Second), Action: ActionPartition,
			A: []string{"left"}, B: []string{"right"}, For: Duration(20 * time.Second)},
		{At: Duration(6 * time.Second), Action: ActionSetClass, Groups: []string{"right"}, Class: "modem"},
		{At: Duration(7 * time.Second), Action: ActionLoss, Groups: []string{"right"}, Loss: 0.3, For: Duration(5 * time.Second)},
		{At: Duration(8 * time.Second), Action: ActionLinkDown, Groups: []string{"right"}, For: Duration(4 * time.Second)},
	}
	lg := trace.New(0)
	if _, err := Run(sp, Options{Trace: lg}); err != nil {
		t.Fatal(err)
	}
	for _, cat := range []string{"scenario.event", "net.partition", "net.reconf", "net.link"} {
		if lg.Count(cat) == 0 {
			t.Errorf("no %q events on the trace", cat)
		}
	}
	// Partition + auto-heal, loss burst + restore, link down + up, one
	// set-class: 7 scenario.event records.
	if got := lg.Count("scenario.event"); got != 7 {
		t.Errorf("scenario.event count = %d, want 7", got)
	}
}

// TestFirewallTimeline: rule events install a firewall (classifier
// label + fw counters on the snapshot), deny-prefix actually denies
// traffic, and a deny-prefix with a duration behaves like the same
// partition: the swarm finishes later than the unfirewalled baseline.
func TestFirewallTimeline(t *testing.T) {
	baseline, err := Run(testSwarmSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := baseline.Snapshot.Labels["classifier"]; ok {
		t.Fatal("baseline run grew a firewall")
	}

	fw := testSwarmSpec()
	fw.Timeline = []EventSpec{
		{At: Duration(2 * time.Second), Action: ActionAddRule,
			Rule: "count", Src: "172.16.9.0/24", ID: 9000, Copies: 50},
		{At: Duration(10 * time.Second), Action: ActionDenyPfx,
			Groups: []string{"right"}, For: Duration(120 * time.Second)},
		{At: Duration(200 * time.Second), Action: ActionDelRule, ID: 9000},
	}
	lg := trace.New(0)
	cut, err := Run(fw, Options{Trace: lg})
	if err != nil {
		t.Fatal(err)
	}
	if got := cut.Snapshot.Labels["classifier"]; got != "linear" {
		t.Fatalf("classifier label = %q, want linear", got)
	}
	if cut.Snapshot.Counters["net-rule-denied"] == 0 {
		t.Error("no attempts denied by the firewall")
	}
	if lg.Count("net.deny") == 0 {
		t.Error("no net.deny events on the trace")
	}
	// add-rule + deny-prefix + lift + del-rule = 4 scenario.event records.
	if got := lg.Count("scenario.event"); got != 4 {
		t.Errorf("scenario.event count = %d, want 4", got)
	}
	lastOf := func(r *Result) float64 {
		var last float64
		for _, c := range r.Completions {
			if c > 0 && c.Seconds() > last {
				last = c.Seconds()
			}
		}
		return last
	}
	if cut.Done == cut.Total && lastOf(cut) <= lastOf(baseline) {
		t.Errorf("deny-prefix did not slow the swarm: baseline %gs, firewalled %gs",
			lastOf(baseline), lastOf(cut))
	}
}

// TestOverlappingEvents: a shorter duplicate partition must not heal
// the longer one it overlaps, and an overlapping loss burst keeps its
// own loss rate until its own expiry — reverts are pinned to the event
// instance that armed them.
func TestOverlappingEvents(t *testing.T) {
	sp := testSwarmSpec() // swarm outlasts the whole timeline below
	sp.Name = "overlap"
	sp.Timeline = []EventSpec{
		{At: Duration(5 * time.Second), Action: ActionPartition,
			A: []string{"left"}, B: []string{"right"}, For: Duration(60 * time.Second)},
		// Identical partition, shorter: its revert must not heal the
		// one above at 30 s.
		{At: Duration(10 * time.Second), Action: ActionPartition,
			A: []string{"left"}, B: []string{"right"}, For: Duration(20 * time.Second)},
		// Overlapping loss bursts: the first's expiry at 42 s must not
		// end the second, which owns the links until 52 s.
		{At: Duration(40 * time.Second), Action: ActionLoss, Groups: []string{"right"},
			Loss: 0.3, For: Duration(2 * time.Second)},
		{At: Duration(41 * time.Second), Action: ActionLoss, Groups: []string{"right"},
			Loss: 0.6, For: Duration(11 * time.Second)},
	}
	lg := trace.New(0)
	if _, err := Run(sp, Options{Trace: lg}); err != nil {
		t.Fatal(err)
	}
	var heals, burstEnds []sim.Time
	for _, e := range lg.Filter("scenario.event") {
		if strings.HasPrefix(e.Msg, "heal") {
			heals = append(heals, e.At)
		}
		if strings.HasPrefix(e.Msg, "loss burst over") {
			burstEnds = append(burstEnds, e.At)
		}
	}
	if len(heals) != 1 || heals[0] != sim.Time(0).Add(65*time.Second) {
		t.Errorf("heals at %v, want exactly one at 65s", heals)
	}
	if len(burstEnds) != 1 || burstEnds[0] != sim.Time(0).Add(52*time.Second) {
		t.Errorf("loss bursts end at %v, want exactly one at 52s", burstEnds)
	}
}

// TestSeedOverride: Options.Seed replaces the spec seed and changes
// the run (different RNG draws), while the spec value is untouched.
func TestSeedOverride(t *testing.T) {
	sp := testSwarmSpec()
	a, err := Run(sp, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Seed != 0 {
		t.Errorf("caller spec mutated: seed %d", sp.Seed)
	}
	if got := a.Spec.Seed; got != 7 {
		t.Errorf("result seed %d, want 7", got)
	}
	if a.Snapshot.Labels["seed"] != "7" {
		t.Errorf("snapshot seed label %q", a.Snapshot.Labels["seed"])
	}
}
