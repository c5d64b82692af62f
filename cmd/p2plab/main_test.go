package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/netem"
	"repro/internal/pintest"
	"repro/internal/scenario"
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

// TestFailedWriteIsTheCommandsError points sweep.csv at /dev/full,
// where every write fails with ENOSPC: the sweep must report it.
func TestFailedWriteIsTheCommandsError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	out := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(out, "sweep.csv")); err != nil {
		t.Fatal(err)
	}
	err := sweepMain([]string{"-exp", "gossip", "-peers", "8", "-seeds", "1", "-out", out})
	if err == nil || !strings.Contains(err.Error(), "no space left") {
		t.Fatalf("sweep into a full device: err = %v, want ENOSPC", err)
	}
}

// TestWriteFileReportsClose: an error from Close is writeFile's error
// even when every write succeeded.
func TestWriteFileReportsClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x")
	err := writeFile(path, func(w io.Writer) error {
		return w.(*os.File).Close() // the second Close, writeFile's, fails
	})
	if err == nil {
		t.Fatal("writeFile dropped the Close error")
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
		{[]string{"6"}, 0, idx, false},         // fig 6 plots both classifiers itself
		{[]string{"6", "8"}, 0, idx, false},    // a swarm figure without rules
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

func TestValidateSeed(t *testing.T) {
	cases := []struct {
		ids  []string
		seed int64
		ok   bool
	}{
		{[]string{"1", "2", "3", "bind", "7"}, 0, true}, // sched- and kernel-seeded
		{[]string{"6"}, 0, false},                       // a ping grid
		{[]string{"8"}, 0, false},                       // used to run seed 1 silently
		{[]string{"1", "dht"}, 0, false},                // used to fail after writing Fig 1
		{[]string{"9"}, 0, false},
		{[]string{"10", "11"}, 0, false},
		{[]string{"churn"}, 0, false},
		{[]string{"gossip"}, 0, false},
		{[]string{"6", "8", "dht", "churn", "gossip"}, 1, true},
		{[]string{"8", "dht", "churn", "gossip"}, -3, true},
	}
	for _, tc := range cases {
		err := validateSeed(tc.ids, tc.seed)
		if (err == nil) != tc.ok {
			t.Errorf("validateSeed(%v, %d) = %v, want ok=%v", tc.ids, tc.seed, err, tc.ok)
		}
	}
}

// captureStdout returns what fn prints.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	printed, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed)
}

// TestFigureFilesMatchParent pins the grid-backed figures to the files
// and summary their per-family drivers wrote before the figures read
// sweep cells (commit f6a225f): the snapshot holds the floats the
// drivers copied, so not a byte may move. In the printed summary, the
// latencies and times are snapshot floats rounded back to whole
// nanoseconds; truncating instead moves 14.991329ms. Figs 2 and 3 are
// the sched engine's own runs, pinned at the files its event heap
// wrote. Fig 6 is a ping grid pinned at the files exp.Fig6 wrote under
// each classifier (commit 53fb934: -fig 6 and -fig 6 -classifier
// indexed); fig6_indexed.dat is what the cells scanned, rules visited
// per scan.
func TestFigureFilesMatchParent(t *testing.T) {
	f := figures{out: t.TempDir(), scale: 1, seed: 1, model: netem.ModelPipe, classifier: netem.ClassifierLinear}
	printed := captureStdout(t, func() error {
		for _, id := range []string{"1", "2", "3", "dht", "gossip", "churn", "6"} {
			if err := f.run(id); err != nil {
				return fmt.Errorf("figure %s: %w", id, err)
			}
		}
		return nil
	})
	pintest.Check(t, "figure summary", printed)
	for _, name := range []string{
		"fig1.dat", "fig1.gp", "fig2.dat", "fig2.gp", "fig3.dat", "fig3.gp", "dht.dat", "gossip.dat", "churn.txt",
		"fig6.dat", "fig6.gp", "fig6-indexed.dat", "fig6-indexed.gp", "fig6_indexed.dat",
	} {
		data, err := os.ReadFile(filepath.Join(f.out, name))
		if err != nil {
			t.Fatal(err)
		}
		pintest.Check(t, name, fmt.Sprintf("%x", sha256.Sum256(data)))
	}
}

// TestFig9MatchesParent pins Fig 9 at 1/20 scale to the file and
// summary exp.Fig9 produced before the figure became a folding loop over
// scenario.Run (commit e4ac9ae): one swarm report per folding.
func TestFig9MatchesParent(t *testing.T) {
	f := figures{out: t.TempDir(), scale: 20, seed: 1, model: netem.ModelPipe, classifier: netem.ClassifierLinear}
	pintest.Check(t, "fig9 summary", captureStdout(t, func() error { return f.run("9") }))
	data, err := os.ReadFile(filepath.Join(f.out, "fig9.dat"))
	if err != nil {
		t.Fatal(err)
	}
	pintest.Check(t, "fig9.dat", fmt.Sprintf("%x", sha256.Sum256(data)))
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

// TestRunTraceTail: -trace N prints the run's last N trace events, one
// line each, between the tail header and the CSV line.
func TestRunTraceTail(t *testing.T) {
	for _, n := range []int{40, 1000} {
		printed := captureStdout(t, func() error {
			return runMain([]string{"flash-crowd", "-trace", fmt.Sprint(n), "-out", t.TempDir()})
		})
		_, tail, ok := strings.Cut(printed, "-- trace tail --\n")
		if !ok {
			t.Fatalf("-trace %d: no tail header in\n%s", n, printed)
		}
		lines := strings.Split(strings.TrimSuffix(tail, "\n"), "\n")
		if last := lines[len(lines)-1]; !strings.HasPrefix(last, "   wrote ") {
			t.Fatalf("-trace %d: tail ends with %q, want the CSV line", n, last)
		}
		if got := len(lines) - 1; got != n {
			t.Errorf("-trace %d printed %d trace lines", n, got)
		}
	}
}

// TestRunReportsSnapshot: a snapshot run says how many clients finished,
// when the last one did and what the web seeds served.
func TestRunReportsSnapshot(t *testing.T) {
	printed := captureStdout(t, func() error {
		return runMain([]string{"snapshot-cold-cdn-fill", "-out", t.TempDir()})
	})
	var report string
	for _, line := range strings.Split(printed, "\n") {
		if strings.Contains(line, " clients done, ") {
			report = strings.TrimSpace(line)
		}
	}
	pintest.Check(t, "snapshot-cold-cdn-fill report", report)
}

// TestRunProfiles: -cpuprofile and -memprofile on a flow-model corpus
// run write two pprof profiles — gzipped profile.proto messages — whose
// sample types say what they measure.
func TestRunProfiles(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if err := runMain([]string{"degrade-restore", "-cpuprofile", cpu, "-memprofile", mem, "-out", dir}); err != nil {
		t.Fatalf("run: %v", err)
	}
	for path, want := range map[string][]string{cpu: {"cpu", "nanoseconds"}, mem: {"alloc_space", "bytes"}} {
		strs, err := profileStrings(path)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		for _, w := range want {
			if !slices.Contains(strs, w) {
				t.Errorf("%s: string table lacks %q", filepath.Base(path), w)
			}
		}
	}
}

// profileStrings decodes a pprof file far enough to prove it is one: it
// gunzips it, walks every top-level protobuf field, and returns the
// string table (field 6 of profile.proto).
func profileStrings(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var strs []string
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("bad field key")
		}
		b = b[n:]
		switch key & 7 {
		case 0:
			if _, n = binary.Uvarint(b); n <= 0 {
				return nil, fmt.Errorf("bad varint")
			}
		case 1:
			n = 8
		case 2:
			l, m := binary.Uvarint(b)
			if m <= 0 || uint64(len(b)-m) < l {
				return nil, fmt.Errorf("bad length")
			}
			if key>>3 == 6 {
				strs = append(strs, string(b[m:m+int(l)]))
			}
			n = m + int(l)
		case 5:
			n = 4
		default:
			return nil, fmt.Errorf("wire type %d", key&7)
		}
		if n > len(b) {
			return nil, fmt.Errorf("truncated field")
		}
		b = b[n:]
	}
	if len(strs) == 0 {
		return nil, fmt.Errorf("no string table")
	}
	return strs, nil
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

// TestRunDumpAppliesSeed checks that -dump prints the seed -seed names,
// as run would execute it, so the dump run with -spec is the same run.
func TestRunDumpAppliesSeed(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int64
	}{
		{[]string{"-dump", "-seed", "7", "flash-crowd"}, 7},
		{[]string{"-dump", "flash-crowd"}, 1},
	} {
		printed := captureStdout(t, func() error { return runMain(tc.args) })
		dumped, err := scenario.Load([]byte(printed))
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if dumped.Seed != tc.want {
			t.Errorf("%v: dumped seed %d, want %d", tc.args, dumped.Seed, tc.want)
		}
	}
}

// TestRunDumpValidates checks that -dump refuses a spec run refuses,
// with run's error, instead of printing it.
func TestRunDumpValidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	spec := `{"name": "x", "groups": [{"name": "g", "class": "nope", "nodes": 2}], "workload": {"kind": "gossip"}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runMain([]string{"-dump", "-spec", path})
	if want := `group "g": unknown class "nope"`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("dump of an invalid spec: %v, want an error naming %s", err, want)
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
