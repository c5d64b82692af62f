package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/netem"
)

// The command's subcommand entry points are plain functions, so the
// binary can be smoke-tested end to end without exec-ing itself:
// each test drives a tiny grid or scenario into a temp directory.

func TestSweepSmoke(t *testing.T) {
	out := t.TempDir()
	err := sweepMain([]string{
		"-exp", "gossip", "-peers", "8", "-seeds", "1", "-workers", "2", "-out", out,
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(out, "sweep.csv"))
	if err != nil {
		t.Fatalf("sweep.csv: %v", err)
	}
	if !strings.Contains(string(data), "coverage") {
		t.Errorf("sweep.csv missing gossip metrics:\n%s", data)
	}
}

func TestSweepScenarioSmoke(t *testing.T) {
	out := t.TempDir()
	err := sweepMain([]string{
		"-exp", "scenario", "-scenario", "gossip-partition", "-seeds", "1", "-out", out,
	})
	if err != nil {
		t.Fatalf("scenario sweep: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(out, "sweep.csv"))
	if err != nil {
		t.Fatalf("sweep.csv: %v", err)
	}
	if !strings.Contains(string(data), "gossip-partition") {
		t.Errorf("sweep.csv missing scenario label:\n%s", data)
	}
}

func TestSweepPingSmoke(t *testing.T) {
	out := t.TempDir()
	err := sweepMain([]string{
		"-exp", "ping", "-rules", "0,2000", "-classifier", "linear,indexed",
		"-workers", "2", "-out", out,
	})
	if err != nil {
		t.Fatalf("ping sweep: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(out, "sweep.csv"))
	if err != nil {
		t.Fatalf("sweep.csv: %v", err)
	}
	for _, want := range []string{"rtt-avg-ms", "indexed", "2000"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("sweep.csv missing %q:\n%s", want, data)
		}
	}
}

func TestValidateFirewallFlags(t *testing.T) {
	lin, idx := netem.ClassifierLinear, netem.ClassifierIndexed
	cases := []struct {
		ids        []string
		rules      int
		classifier netem.Classifier
		ok         bool
	}{
		{[]string{"3"}, 0, lin, true},
		{[]string{"3"}, 100, lin, false},       // -rules on a non-swarm figure
		{[]string{"8"}, 100, idx, true},        // firewalled swarm
		{[]string{"8"}, 0, idx, false},         // classifier without rules
		{[]string{"6"}, 0, idx, true},          // fig 6 owns its rule counts
		{[]string{"6x"}, 0, idx, false},        // 6x plots both classifiers itself
		{[]string{"1", "8"}, 50000, idx, true}, // mixed set: applies somewhere
	}
	for _, tc := range cases {
		err := validateFirewallFlags(tc.ids, tc.rules, tc.classifier)
		if (err == nil) != tc.ok {
			t.Errorf("validateFirewallFlags(%v, %d, %v) = %v, want ok=%v",
				tc.ids, tc.rules, tc.classifier, err, tc.ok)
		}
	}
}

func TestSweepRejectsBadFlags(t *testing.T) {
	if err := sweepMain([]string{"-exp", "nope"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := sweepMain([]string{"-exp", "gossip", "-scenario", "flash-crowd"}); err == nil {
		t.Error("scenario axis accepted on a non-scenario experiment")
	}
	if err := sweepMain([]string{"-exp", "scenario", "-scenario", "no-such-scenario"}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := sweepMain([]string{"-exp", "dht", "-rules", "0,100"}); err == nil {
		t.Error("rules axis accepted on a non-firewall experiment")
	}
	if err := sweepMain([]string{"-exp", "ping", "-classifier", "hash"}); err == nil {
		t.Error("unknown classifier accepted")
	}
	// A single value on an axis the family does not read used to run and
	// label every row with it; the error names the family and the axis.
	for _, c := range []struct{ family, axis, args string }{
		{"dht", "churn", "-exp dht -peers 8 -churn 0.3"},
		{"sched", "churn", "-exp sched -class modem -model flow -churn 0.4"},
		{"ping", "peers", "-exp ping -peers 50"},
		{"scenario", "class", "-exp scenario -class modem -model flow"},
	} {
		err := sweepMain(strings.Fields(c.args))
		if err == nil || !strings.Contains(err.Error(), c.family+" ignores the "+c.axis+" axis") {
			t.Errorf("sweep %s: got %v, want %s to refuse the %s axis", c.args, err, c.family, c.axis)
		}
	}
}

func TestRunSmoke(t *testing.T) {
	out := t.TempDir()
	// A JSON spec exercises the loader end to end; tiny gossip ring so
	// the smoke test stays fast.
	spec := `{
	  "name": "smoke",
	  "horizon": "5m",
	  "groups": [{"name": "g", "class": "lan", "nodes": 8}],
	  "workload": {"kind": "gossip"},
	  "timeline": [
	    {"at": "2s", "action": "loss", "groups": ["g"], "loss": 0.1, "for": "3s"}
	  ]
	}`
	specPath := filepath.Join(out, "smoke.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runMain([]string{"-spec", specPath, "-out", out, "-trace", "10"}); err != nil {
		t.Fatalf("run -spec: %v", err)
	}
	if _, err := os.Stat(filepath.Join(out, "scenario-smoke.csv")); err != nil {
		t.Errorf("result CSV not written: %v", err)
	}
}

func TestRunCorpusByName(t *testing.T) {
	out := t.TempDir()
	if err := runMain([]string{"-out", out, "gossip-partition"}); err != nil {
		t.Fatalf("run gossip-partition: %v", err)
	}
	if _, err := os.Stat(filepath.Join(out, "scenario-gossip-partition.csv")); err != nil {
		t.Errorf("result CSV not written: %v", err)
	}
	// Name-first order must work too (flag parsing stops at the first
	// positional argument; runMain pops a leading name itself).
	if err := runMain([]string{"gossip-partition", "-out", out}); err != nil {
		t.Fatalf("run <name> -flags: %v", err)
	}
	if err := runMain([]string{"gossip-partition", "-out", out, "extra"}); err == nil {
		t.Error("trailing argument accepted (name first)")
	}
	if err := runMain([]string{"-out", out, "gossip-partition", "extra"}); err == nil {
		t.Error("trailing argument accepted (flags first)")
	}
	if err := runMain([]string{"gossip-partition", "-spec", "x.json"}); err == nil {
		t.Error("name and -spec together accepted")
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	if err := runMain([]string{"no-such-scenario"}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := runMain([]string{}); err == nil {
		t.Error("missing scenario accepted")
	}
}

func TestRunDump(t *testing.T) {
	if err := runMain([]string{"-dump", "flash-crowd"}); err != nil {
		t.Fatalf("dump: %v", err)
	}
}

func TestListSmoke(t *testing.T) {
	if err := listMain(nil); err != nil {
		t.Fatalf("list: %v", err)
	}
	if err := listMain([]string{"-json"}); err != nil {
		t.Fatalf("list -json: %v", err)
	}
}
