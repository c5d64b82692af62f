package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pintest"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The corpus harness. Every committed scenario runs twice in this
// package's tests, and each flow-model scenario once more with a 100 ms
// batch window:
//
//   - Run 1, traced on the run's own registry, is corpusRun: run once
//     per test binary by the first test that asks for it, and shared by
//     TestGoldenTraces, TestCorpusSnapshots and TestGoldenTraceCompat.
//   - Run 2, traced with a registry sampled every 10 s, is
//     TestObsTraceNeutral's.
//   - The windowed run is corpusRun too, under "<name>-windowed".
//
// The tests run in this file's order, so the parallel subtests of the
// first three make every run, and TestCorpusSnapshots and
// TestGoldenTraceCompat read them. TestGoldenTraceCompat checks every
// pin of testdata/golden_digests.json; GOLDEN_UPDATE=1 rewrites the pins
// that moved (see pintest).

// tracedRun is what a traced corpus run leaves for the tests to check.
type tracedRun struct {
	// digest is the SHA-256 of the rendered trace and the headline
	// counters, kernel stats included: one short string that pins the
	// entire observable behavior of the run. neutral is the same without
	// the kernel stats, which a sampler's own self-rescheduling event
	// moves without moving anyone else's dispatch.
	digest, neutral string
	res             *Result
	// timelineEvents counts the trace's scenario.event records.
	timelineEvents uint64
}

// runTraced runs sp traced under opt and renders its trace once, into
// both hashes. Rendered straight into them: a bytes.Buffer in between
// grows to 2–3× the stream (105 MB a corpus pass) only to be read once.
func runTraced(sp Spec, opt Options) (tracedRun, error) {
	lg := trace.New(0)
	opt.Trace = lg
	res, err := Run(&sp, opt)
	if err != nil {
		return tracedRun{}, fmt.Errorf("%s: %w", sp.Name, err)
	}
	h, hn := sha256.New(), sha256.New()
	if err := lg.Render(io.MultiWriter(h, hn)); err != nil {
		return tracedRun{}, fmt.Errorf("%s: render: %w", sp.Name, err)
	}
	outcome := fmt.Sprintf("net %+v ended %v done %d/%d\n", res.Net, res.EndedAt, res.Done, res.Total)
	fmt.Fprintf(h, "kernel %+v %s", res.Kernel, outcome)
	io.WriteString(hn, outcome)
	return tracedRun{
		digest:         hex.EncodeToString(h.Sum(nil)),
		neutral:        hex.EncodeToString(hn.Sum(nil)),
		res:            res,
		timelineEvents: lg.Count("scenario.event"),
	}, nil
}

// traceDigest runs a scenario with full tracing and returns its digest.
func traceDigest(t *testing.T, sp Spec) (string, *Result) {
	t.Helper()
	r, err := runTraced(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r.digest, r.res
}

// windowed is sp rerun with a 100 ms batch window.
func windowed(sp Spec) Spec {
	sp.Name += "-windowed"
	sp.FlowWindow = Duration(100 * time.Millisecond)
	return sp
}

// corpusRuns holds, by name, each corpus scenario's run 1 and each
// flow-model scenario's windowed run, each made once.
var corpusRuns = sync.OnceValue(func() map[string]func() (tracedRun, error) {
	runs := make(map[string]func() (tracedRun, error))
	for _, sp := range Corpus() {
		runs[sp.Name] = sync.OnceValues(func() (tracedRun, error) { return runTraced(sp, Options{}) })
		if sp.Model == "flow" {
			w := windowed(sp)
			runs[w.Name] = sync.OnceValues(func() (tracedRun, error) { return runTraced(w, Options{}) })
		}
	}
	return runs
})

// corpusRun is the named corpus run, made now if no test has made it.
func corpusRun(t *testing.T, name string) tracedRun {
	t.Helper()
	r, err := corpusRuns()[name]()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestGoldenTraces makes every corpus scenario's run 1, in parallel. A
// timeline scenario must record scenario.event, and every message sent
// is delivered, dropped or counted in flight at the horizon. That the run
// repeats, timeline reconfiguration included, is TestGoldenTraceCompat's
// pin: across builds and processes, which is stronger than twice in
// one.
func TestGoldenTraces(t *testing.T) {
	for _, sp := range Corpus() {
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			r := corpusRun(t, sp.Name)
			if len(sp.Timeline) > 0 && r.timelineEvents == 0 {
				t.Errorf("timeline scenario recorded no scenario.event")
			}
			inFlight := r.res.Obs.Total("p2plab_net_messages_in_flight")
			if n := r.res.Net; float64(n.MessagesSent) != float64(n.MessagesDelivered+n.MessagesDropped)+inFlight {
				t.Errorf("messages not conserved: %+v with %g in flight", n, inFlight)
			}
			t.Logf("digest %s (%d/%d done, ended %v)", r.digest[:16], r.res.Done, r.res.Total, r.res.EndedAt)
		})
	}
}

// TestGoldenTracesWindowed makes each flow-model corpus scenario's
// windowed run, in parallel: batching changes when flows are leveled,
// never nondeterministically, so TestGoldenTraceCompat pins these too.
func TestGoldenTracesWindowed(t *testing.T) {
	for _, sp := range Corpus() {
		if sp.Model != "flow" {
			continue
		}
		w := windowed(sp)
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			if err := w.WithDefaults().Validate(); err != nil {
				t.Fatal(err)
			}
			r := corpusRun(t, w.Name)
			if r.res.Done == 0 {
				t.Errorf("windowed run completed nothing: %d/%d", r.res.Done, r.res.Total)
			}
			t.Logf("digest %s (%d/%d done, ended %v)", r.digest[:16], r.res.Done, r.res.Total, r.res.EndedAt)
		})
	}
}

// TestObsTraceNeutral is the observability half of the golden-trace
// property: every run carries a registry, and periodically sampling it
// must not move a single event of a single scenario. Each scenario's
// run 2, sampled every 10 s, must render the trace, the network stats
// and the completion figures of run 1 byte for byte. Kernel stats are
// deliberately excluded: the sampler's own self-rescheduling event
// legitimately increases the dispatched event count without touching
// anyone else's dispatch order. The raw-network half, a network's
// private registry against a sampled one, is bt's
// TestObsNeutralOnRawNetwork.
//
// The layers count into the registry where they count, so their
// families are live during the run: every sample of the scenarios in
// liveFamilies carries those families, at no more than their final
// values.
func TestObsTraceNeutral(t *testing.T) {
	liveFamilies := map[string][]string{
		"dht-flapping-links": {"p2plab_dht_timeouts_total"},
		"churn-storm":        {"p2plab_churn_arrivals_total", "p2plab_churn_departures_total"},
	}
	for name := range liveFamilies {
		if _, ok := ByName(name); !ok {
			t.Fatalf("%s is not a corpus scenario", name)
		}
	}
	var (
		mu         sync.Mutex
		sampledAny bool
	)
	t.Cleanup(func() {
		if !sampledAny {
			t.Error("no scenario reached a single 10s sampling boundary")
		}
	})
	for _, sp := range Corpus() {
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			bare := corpusRun(t, sp.Name)
			reg := obs.NewRegistry()
			var last *obs.Snapshot
			live := liveFamilies[sp.Name]
			peak := make(map[string]float64, len(live))
			absent := make(map[string]int, len(live)) // samples lacking the family
			sampled, err := runTraced(sp, Options{
				Obs:            reg,
				SampleInterval: 10 * time.Second,
				OnSample: func(at sim.Time, snap *obs.Snapshot) {
					last = snap
					for _, name := range live {
						if snap.Find(name) == nil {
							absent[name]++
						}
						peak[name] = max(peak[name], snap.Total(name))
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if sampled.neutral != bare.neutral {
				t.Fatalf("trace diverged with a sampler (unsampled digest %.16s, sampled %.16s)",
					bare.neutral, sampled.neutral)
			}
			if last != nil {
				mu.Lock()
				sampledAny = true
				mu.Unlock()
				if last.Total("p2plab_sim_events_total") == 0 {
					t.Error("sampled snapshot shows no kernel events")
				}
			}
			// The final registry state must mirror the run regardless of
			// whether a sampling boundary was reached.
			final := reg.Snapshot()
			if final.Find("p2plab_net_messages_sent_total") == nil {
				t.Error("network counters not registered")
			}
			if len(live) > 0 && last == nil {
				t.Errorf("no sample to find %v in", live)
			}
			for _, name := range live {
				if absent[name] > 0 {
					t.Errorf("%d samples lack %s", absent[name], name)
				}
				if end := final.Total(name); peak[name] > end {
					t.Errorf("%s sampled at %g, above its final %g", name, peak[name], end)
				}
			}
		})
	}
}

// TestCorpusSnapshots checks each column of every corpus scenario's
// Result.Snapshot against its family's value in the run's final
// registry snapshot, with no column that no family names. The columns
// themselves, written as CSV, are the corpus_snapshots pin, recorded
// while they were still copied by hand beside the registry.
func TestCorpusSnapshots(t *testing.T) {
	for _, sp := range Corpus() {
		res := corpusRun(t, sp.Name).res
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
}

// TestGoldenTraceCompat checks every pin of testdata/golden_digests.json:
// each corpus scenario's run 1 digest, each windowed digest, and the
// corpus_snapshots CSV. The bt hot-loop, solver and trace refactors must
// not move a single byte of any corpus trace; a deliberate schedule
// change re-records its pins with GOLDEN_UPDATE=1, or declares them in
// pintest's intentionalShifts. A pin that no corpus run computes any
// more fails as an orphan.
func TestGoldenTraceCompat(t *testing.T) {
	pins := make(map[string]string)
	var snaps []*metrics.Snapshot
	for _, sp := range Corpus() {
		r := corpusRun(t, sp.Name)
		pins[sp.Name] = r.digest
		snaps = append(snaps, r.res.Snapshot)
		if sp.Model == "flow" {
			w := windowed(sp).Name
			pins[w] = corpusRun(t, w).digest
		}
	}
	var buf bytes.Buffer
	if err := metrics.WriteSnapshotsCSV(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	pins["corpus_snapshots"] = buf.String()
	pintest.CheckSet(t, pins)
}
