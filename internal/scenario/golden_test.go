package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/trace"
)

// traceDigest runs a scenario with full tracing and returns the
// SHA-256 of the rendered event stream plus the headline counters —
// one short string that pins the entire observable behavior of the
// run.
func traceDigest(t *testing.T, sp Spec) (string, *Result, *trace.Log) {
	t.Helper()
	lg := trace.New(0)
	res, err := Run(&sp, Options{Trace: lg})
	if err != nil {
		t.Fatalf("%s: %v", sp.Name, err)
	}
	// Rendered straight into the hash: a bytes.Buffer in between grows
	// to 2–3× the stream (105 MB a corpus pass) only to be read once.
	h := sha256.New()
	if err := lg.Render(h); err != nil {
		t.Fatalf("%s: render: %v", sp.Name, err)
	}
	fmt.Fprintf(h, "kernel %+v net %+v ended %v done %d/%d\n",
		res.Kernel, res.Net, res.EndedAt, res.Done, res.Total)
	return hex.EncodeToString(h.Sum(nil)), res, lg
}

// TestGoldenTraces is the corpus-wide determinism property: every
// committed scenario, run with its fixed seed, must produce a
// byte-identical trace stream run over run, timeline reconfiguration
// included.
func TestGoldenTraces(t *testing.T) {
	for _, sp := range Corpus() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			first, res, lg := traceDigest(t, sp)
			again, _, _ := traceDigest(t, sp)
			if first != again {
				t.Errorf("runs diverged: %s vs %s", first, again)
			}
			if len(sp.Timeline) > 0 && lg.Count("scenario.event") == 0 {
				t.Errorf("timeline scenario recorded no scenario.event")
			}
			t.Logf("digest %s (%d/%d done, ended %v)", first[:16], res.Done, res.Total, res.EndedAt)
		})
	}
}

// goldenWindowedFile pins the trace digest of every flow-model corpus
// scenario rerun with a 100 ms batch window, keyed "<name>-windowed".
// TestGoldenTracesWindowed checks it, and rewrites it under
// GOLDEN_UPDATE like goldenCompatFile.
const goldenWindowedFile = "testdata/golden_digests_windowed.json"

// TestGoldenTracesWindowed extends the compatibility property to the
// batched solver: each flow-model corpus scenario, rerun with a
// positive batch window, must reproduce its committed digest —
// batching changes when flows are leveled, never nondeterministically,
// and a solver change that moves no window-0 digest must not move
// these either.
func TestGoldenTracesWindowed(t *testing.T) {
	digests := make(map[string]string)
	for _, sp := range Corpus() {
		if sp.Model != "flow" {
			continue
		}
		sp := sp
		sp.Name += "-windowed"
		sp.FlowWindow = Duration(100 * time.Millisecond)
		t.Run(sp.Name, func(t *testing.T) {
			if err := sp.WithDefaults().Validate(); err != nil {
				t.Fatal(err)
			}
			d, res, _ := traceDigest(t, sp)
			if res.Done == 0 {
				t.Errorf("windowed run completed nothing: %d/%d", res.Done, res.Total)
			}
			digests[sp.Name] = d
			t.Logf("digest %s (%d/%d done, ended %v)", d[:16], res.Done, res.Total, res.EndedAt)
		})
	}
	if t.Failed() {
		return
	}
	checkPins(t, goldenWindowedFile, digests)
}
