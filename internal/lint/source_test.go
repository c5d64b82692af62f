package lint_test

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// walkRepo calls visit with the path, relative to the module root, and
// the contents of every file under the root whose name keep accepts,
// in the order `filepath.WalkDir` meets them: every directory is
// entered, hidden ones and testdata included.
func walkRepo(t *testing.T, keep func(name string) bool, visit func(rel string, src []byte)) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !keep(d.Name()) {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		visit(filepath.ToSlash(rel), src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGofmt: every Go file is as gofmt prints it (DESIGN decision 13).
// It reads the files `gofmt -l .` does from the module root, a name
// ending in .go and not starting with a dot, testdata included: the
// analyzers' suppression comments live on specific lines, so
// formatting drift is not cosmetic. A file that does not parse fails
// too, as it fails gofmt.
func TestGofmt(t *testing.T) {
	n := 0
	walkRepo(t, func(name string) bool {
		return strings.HasSuffix(name, ".go") && !strings.HasPrefix(name, ".")
	}, func(rel string, src []byte) {
		n++
		out, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", rel, err)
		} else if !bytes.Equal(out, src) {
			t.Errorf("%s: not gofmt-formatted; run gofmt -w %s", rel, rel)
		}
	})
	if n == 0 {
		t.Fatal("no Go file found under the module root")
	}
}

// hexPin is a 64-hex-digit string literal: a SHA-256 digest typed into
// a test.
var hexPin = regexp.MustCompile(`"[0-9a-f]{64}"`)

// TestNoHandKeptPins: a test pins a digest, hash or summary through
// internal/pintest, which keeps it in its package's
// testdata/golden_digests.json, where GOLDEN_UPDATE=1 rewrites it and
// prints a key-by-key diff. A 64-hex-digit literal on a line of a
// *_test.go file, in any directory, is a pin that an update cannot
// reach and someone must retype by hand.
func TestNoHandKeptPins(t *testing.T) {
	n := 0
	walkRepo(t, func(name string) bool { return strings.HasSuffix(name, "_test.go") }, func(rel string, src []byte) {
		n++
		for i, line := range bytes.Split(src, []byte("\n")) {
			if hexPin.Match(line) {
				t.Errorf("%s:%d: pinned digest literal in a test; check it with pintest.Check", rel, i+1)
			}
		}
	})
	if n == 0 {
		t.Fatal("no test file found under the module root")
	}
}
