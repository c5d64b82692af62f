// Package pintest checks the values a package's tests pin — trace
// digests, file hashes, printed summaries, counters — against one
// committed file per package, testdata/golden_digests.json beside the
// package's tests (go test runs a package's tests in its directory). A
// pin is a key and a string, and the file is a flat JSON object of
// them. One file per package, not one for the repository: go test ./...
// runs package test binaries at the same time, and only within one
// binary does a mutex keep updates apart.
//
// With GOLDEN_UPDATE set, a check writes the value it was given into the
// file instead of comparing it and keeps every other key. Each key it
// moves fails the test once, with the old and the new value, so that
//
//	GOLDEN_UPDATE=1 go test ./...
//
// prints a key-by-key diff of what it rewrote. The plain run after it
// must pass.
package pintest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// file is the package's pin file, relative to the directory its tests
// run in.
const file = "testdata/golden_digests.json"

// intentionalShifts names the pins expected to differ from the file,
// keyed "<package directory from the module root>:<key>" (for example
// "internal/scenario:flash-crowd", matched against the end of the
// test's working directory), each with the reason the shift is right. A
// declared pin must differ from the file, and every other pin must
// equal it. Clear an entry when its file is re-recorded.
var intentionalShifts = map[string]string{}

// mu keeps one test binary's parallel checks from interleaving a read
// of the file with an update's write.
var mu sync.Mutex

// pins is a pin file and how to check it.
type pins struct {
	file   string
	update bool
	// shifts is intentionalShifts for this file, keyed by pin key.
	shifts map[string]string
}

// Check fails t unless value equals the pin at key in the package's pin
// file, or, under GOLDEN_UPDATE, records value there.
//
//lint:allow unused test support: the pinning packages' tests check every pin through it
func Check(t testing.TB, key, value string) {
	t.Helper()
	ours(t).check(t, key, value)
}

// CheckSet checks every value as Check does. values must hold every pin
// of the package's file: a pinned key that values lacks is an orphan,
// whose test is gone.
//
//lint:allow unused test support: the corpus harness checks its whole pin file through it
func CheckSet(t testing.TB, values map[string]string) {
	t.Helper()
	ours(t).checkSet(t, values)
}

// ours is the package's own pin file, with the shifts declared for it.
func ours(t testing.TB) pins {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	p := pins{file: file, update: os.Getenv("GOLDEN_UPDATE") != "", shifts: make(map[string]string)}
	for k, reason := range intentionalShifts {
		if dir, key, _ := strings.Cut(k, ":"); strings.HasSuffix(filepath.ToSlash(wd), "/"+dir) {
			p.shifts[key] = reason
		}
	}
	return p
}

func (p pins) check(t testing.TB, key, value string) {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	want, err := p.read()
	if err != nil {
		t.Errorf("%s: %v", key, err)
		return
	}
	pinned, known := want[key]
	if p.update {
		if known && pinned == value {
			return
		}
		was := "<none>"
		if known {
			was = pinned
		}
		want[key] = value
		if err := p.write(want); err != nil {
			t.Errorf("%s: %v", key, err)
			return
		}
		t.Errorf("%s: rewrote its pin in %s\n%s", key, p.file, diff(was, value))
		return
	}
	switch reason, shifted := p.shifts[key]; {
	case !known:
		t.Errorf("%s: not pinned in %s; GOLDEN_UPDATE=1 records it", key, p.file)
	case shifted && value == pinned:
		t.Errorf("%s: declared shifted (%s) but equal to its pin; drop it from intentionalShifts", key, reason)
	case !shifted && value != pinned:
		t.Errorf("%s: moved from its pin in %s\n%s\nif the move is intended, rerun with GOLDEN_UPDATE=1 or declare it in intentionalShifts",
			key, p.file, diff(pinned, value))
	}
}

func (p pins) checkSet(t testing.TB, values map[string]string) {
	t.Helper()
	for _, key := range slices.Sorted(maps.Keys(values)) {
		p.check(t, key, values[key])
	}
	mu.Lock()
	want, err := p.read()
	mu.Unlock()
	if err != nil {
		t.Error(err)
		return
	}
	for _, key := range slices.Sorted(maps.Keys(want)) {
		if _, ok := values[key]; !ok {
			t.Errorf("%s: pinned in %s, but no test computed it", key, p.file)
		}
	}
}

// read returns the file's pins. A missing file is empty under update,
// where the first check creates it.
func (p pins) read() (map[string]string, error) {
	blob, err := os.ReadFile(p.file)
	if errors.Is(err, os.ErrNotExist) && p.update {
		return make(map[string]string), nil
	}
	if err != nil {
		return nil, fmt.Errorf("no pin file (GOLDEN_UPDATE=1 records one): %w", err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		return nil, fmt.Errorf("corrupt %s: %w", p.file, err)
	}
	return want, nil
}

// write stores pins sorted by key, two-space indented, with no HTML
// escaping, so that a value reads in the file as it does in a test.
func (p pins) write(all map[string]string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(all); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p.file), 0o755); err != nil {
		return err
	}
	return os.WriteFile(p.file, buf.Bytes(), 0o644)
}

// diff shows a moved value: a one-line value whole, a multi-line one at
// its first differing line.
func diff(was, now string) string {
	if !strings.Contains(was, "\n") && !strings.Contains(now, "\n") {
		return fmt.Sprintf("  was %s\n  now %s", was, now)
	}
	a, b := strings.Split(was, "\n"), strings.Split(now, "\n")
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return fmt.Sprintf("  line %d was %q\n  line %d now %q", i+1, line(a, i), i+1, line(b, i))
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<eof>"
}
