package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// goldenCompatFile pins every corpus scenario's trace digest to the
// value recorded at the commit before PR 8 (the bt hot-loop refactor
// and bugfix sweep). TestGoldenTraces proves determinism *within* a
// build; this file proves compatibility *across* builds: the picker,
// choker and interest refactors must not move a single byte of any
// corpus trace, and a bugfix may shift a trace only when the shift is
// declared and justified in intentionalShifts below.
//
// Regenerate with:
//
//	GOLDEN_UPDATE=1 go test ./internal/scenario/ -run TestGoldenTraceCompat
//
// Only regenerate when a PR deliberately changes observable behavior,
// and record the justification in intentionalShifts (or clear it when
// re-baselining).
const goldenCompatFile = "testdata/golden_digests.json"

// intentionalShifts names the corpus scenarios whose digests are
// expected to differ from the recorded pre-PR baseline, each with the
// reason the shift is correct. Scenarios not listed here must match
// the file exactly.
var intentionalShifts = map[string]string{
	// (none for PR 8: the dial-budget fix only binds when a tracker
	// response could push a client past MaxInitiate — corpus swarms top
	// out at ~21 nodes, under the 30-dial budget — and the multi-word
	// block bitmap only binds for pieces over 1 MiB, while the corpus
	// uses 256 KiB pieces. Both fixes are therefore trace-neutral on
	// the corpus and are instead pinned by dedicated regression tests
	// in internal/bt.)
}

func TestGoldenTraceCompat(t *testing.T) {
	digests := make(map[string]string)
	for _, sp := range Corpus() {
		sp := sp
		d, res, _ := traceDigest(t, sp)
		digests[sp.Name] = d
		// Conservation (vnet.Network.transmit): whatever is not yet
		// delivered or dropped at the horizon is still in flight.
		if n := res.Net; n.MessagesSent < n.MessagesDelivered+n.MessagesDropped {
			t.Errorf("%s: messages not conserved: %+v", sp.Name, n)
		}
	}

	if os.Getenv("GOLDEN_UPDATE") != "" {
		names := make([]string, 0, len(digests))
		for n := range digests {
			names = append(names, n)
		}
		sort.Strings(names)
		ordered := make(map[string]string, len(digests))
		for _, n := range names {
			ordered[n] = digests[n]
		}
		blob, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenCompatFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCompatFile, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d digests", goldenCompatFile, len(digests))
		return
	}

	blob, err := os.ReadFile(goldenCompatFile)
	if err != nil {
		t.Fatalf("missing %s (run with GOLDEN_UPDATE=1 to record): %v", goldenCompatFile, err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt %s: %v", goldenCompatFile, err)
	}
	for name, got := range digests {
		pinned, known := want[name]
		if !known {
			t.Errorf("%s: not in %s — new scenario? record it (GOLDEN_UPDATE=1)", name, goldenCompatFile)
			continue
		}
		if reason, shifted := intentionalShifts[name]; shifted {
			if got == pinned {
				t.Errorf("%s: declared as intentionally shifted (%s) but digest is unchanged — drop it from intentionalShifts", name, reason)
			}
			continue
		}
		if got != pinned {
			t.Errorf("%s: trace shifted from the recorded baseline\n  recorded %s\n  got      %s\nif this shift is intentional, declare it in intentionalShifts with a justification", name, pinned, got)
		}
	}
	for name := range want {
		if _, ok := digests[name]; !ok {
			t.Errorf("%s: recorded in %s but no longer in the corpus", name, goldenCompatFile)
		}
	}
}
