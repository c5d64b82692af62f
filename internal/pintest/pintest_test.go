package pintest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// recorder is a testing.TB that keeps the failures a check reports.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}

func (r *recorder) Error(args ...any) { r.errs = append(r.errs, fmt.Sprint(args...)) }

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// pinFile writes want as a pin file in a fresh directory and returns a
// pins reading it.
func pinFile(t *testing.T, want map[string]string) pins {
	t.Helper()
	p := pins{file: filepath.Join(t.TempDir(), "testdata", "golden_digests.json")}
	if err := p.write(want); err != nil {
		t.Fatal(err)
	}
	return p
}

func (p pins) load(t *testing.T) map[string]string {
	t.Helper()
	blob, err := os.ReadFile(p.file)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]string
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	return got
}

// wantErrs fails unless r reported one failure per entry of want, each
// containing every fragment of its entry.
func wantErrs(t *testing.T, r *recorder, want ...[]string) {
	t.Helper()
	if len(r.errs) != len(want) {
		t.Fatalf("%d failures, want %d: %q", len(r.errs), len(want), r.errs)
	}
	for i, frags := range want {
		for _, f := range frags {
			if !strings.Contains(r.errs[i], f) {
				t.Errorf("failure %d %q lacks %q", i, r.errs[i], f)
			}
		}
	}
}

func TestEqualValuePasses(t *testing.T) {
	p := pinFile(t, map[string]string{"a": "1", "csv": "h\nr\n"})
	r := &recorder{}
	p.check(r, "a", "1")
	p.check(r, "csv", "h\nr\n")
	wantErrs(t, r)
}

func TestUnknownKey(t *testing.T) {
	p := pinFile(t, map[string]string{"a": "1"})
	r := &recorder{}
	p.check(r, "b", "2")
	wantErrs(t, r, []string{"b: not pinned", "GOLDEN_UPDATE=1"})
}

func TestMovedValueShowsOldAndNew(t *testing.T) {
	p := pinFile(t, map[string]string{"a": "1f00"})
	r := &recorder{}
	p.check(r, "a", "2e00")
	wantErrs(t, r, []string{"a: moved", "was 1f00", "now 2e00"})
}

func TestMultiLineValueAtFirstDifferingLine(t *testing.T) {
	p := pinFile(t, map[string]string{"csv": "h\nr1\nr2\n"})
	r := &recorder{}
	p.check(r, "csv", "h\nr1\nrX\n")
	p.check(r, "csv", "h\nr1\n")
	wantErrs(t, r,
		[]string{"csv: moved", `line 3 was "r2"`, `line 3 now "rX"`},
		[]string{"csv: moved", `line 3 was "r2"`, `line 3 now ""`, "\n  line 3"})
	r = &recorder{}
	p.check(r, "csv", "h\nr1\nr2\nr3")
	wantErrs(t, r, []string{`line 4 was ""`, `line 4 now "r3"`})
}

func TestDeclaredShiftMustMove(t *testing.T) {
	p := pinFile(t, map[string]string{"a": "1"})
	p.shifts = map[string]string{"a": "interest re-evaluated when a peer stops being useful"}
	r := &recorder{}
	p.check(r, "a", "1")
	wantErrs(t, r, []string{"a: declared shifted", "interest re-evaluated when a peer stops being useful", "drop it"})
	r = &recorder{}
	p.check(r, "a", "2")
	wantErrs(t, r)
}

func TestSetReportsOrphans(t *testing.T) {
	p := pinFile(t, map[string]string{"a": "1", "b": "2", "c": "3"})
	r := &recorder{}
	p.checkSet(r, map[string]string{"a": "1", "c": "3"})
	wantErrs(t, r, []string{"b: pinned in", "no test computed it"})
}

// TestUpdatePrintsKeyByKeyDiff: an update rewrites the keys it was given
// that moved, reports each with its old and new value, and leaves the
// rest of the file as it was.
func TestUpdatePrintsKeyByKeyDiff(t *testing.T) {
	p := pinFile(t, map[string]string{"a": "1", "b": "2", "c": "3"})
	p.update = true
	r := &recorder{}
	p.checkSet(r, map[string]string{"a": "1", "b": "20", "d": "4"})
	wantErrs(t, r,
		[]string{"b: rewrote its pin", "was 2", "now 20"},
		[]string{"d: rewrote its pin", "was <none>", "now 4"},
		[]string{"c: pinned in"})
	want := map[string]string{"a": "1", "b": "20", "c": "3", "d": "4"}
	if got := p.load(t); !reflect.DeepEqual(got, want) {
		t.Errorf("file holds %v, want %v", got, want)
	}
	p.update = false
	r = &recorder{}
	p.checkSet(r, want)
	wantErrs(t, r)
}

// TestFilteredUpdateKeepsEveryOtherKey: an update that computed one of
// five pins, as under a -run filter, rewrites that one and keeps the
// other four. Rewriting the file from the computed values alone left it
// with one key.
func TestFilteredUpdateKeepsEveryOtherKey(t *testing.T) {
	all := map[string]string{"v1": "a", "v2": "b", "v3": "c", "v4": "d", "v5": "e"}
	p := pinFile(t, all)
	p.update = true
	r := &recorder{}
	p.check(r, "v2", "B")
	wantErrs(t, r, []string{"v2: rewrote its pin", "was b", "now B"})
	all["v2"] = "B"
	if got := p.load(t); !reflect.DeepEqual(got, all) {
		t.Errorf("file holds %v, want %v", got, all)
	}
}

// TestUpdateCreatesTheFile: the first update of a package records its
// file, sorted by key, values unescaped.
func TestUpdateCreatesTheFile(t *testing.T) {
	p := pins{file: filepath.Join(t.TempDir(), "testdata", "golden_digests.json"), update: true}
	r := &recorder{}
	p.check(r, "z", "<eof> & more")
	p.check(r, "a", "1")
	if len(r.errs) != 2 {
		t.Fatalf("failures %q, want one per new key", r.errs)
	}
	blob, err := os.ReadFile(p.file)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"a\": \"1\",\n  \"z\": \"<eof> & more\"\n}\n"; string(blob) != want {
		t.Errorf("file %q, want %q", blob, want)
	}
	r = &recorder{}
	pins{file: p.file}.check(r, "z", "<eof> & more")
	wantErrs(t, r)
}

// TestShiftsAreKeyedByPackage: a declared shift reaches the file of the
// package it names and no other.
func TestShiftsAreKeyedByPackage(t *testing.T) {
	defer func(saved map[string]string) { intentionalShifts = saved }(intentionalShifts)
	intentionalShifts = map[string]string{
		"internal/pintest:a":   "ours",
		"internal/scenario:b":  "theirs",
		"internal/pintest/x:c": "a subdirectory",
	}
	if got, want := ours(t).shifts, map[string]string{"a": "ours"}; !reflect.DeepEqual(got, want) {
		t.Errorf("shifts %v, want %v", got, want)
	}
}
