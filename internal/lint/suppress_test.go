package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, []*ast.File{f}
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text         string
		ok           bool
		name, reason string
	}{
		{"//lint:allow maporder keys sorted below", true, "maporder", "keys sorted below"},
		{"//lint:allow maporder", true, "maporder", ""},
		{"//lint:allow", true, "", ""},
		{"// ordinary comment", false, "", ""},
		{"//p2p:token", false, "", ""},
	}
	for _, c := range cases {
		name, reason, ok := parseAllow(c.text)
		if ok != c.ok || name != c.name || reason != c.reason {
			t.Errorf("parseAllow(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.text, name, reason, ok, c.name, c.reason, c.ok)
		}
	}
}

// TestBadSuppressions: an allow without a reason (or without an
// analyzer name at all) is itself a diagnostic — the reason is the
// audit trail, so it cannot be optional.
func TestBadSuppressions(t *testing.T) {
	fset, files := parseOne(t, `package p

func f() {
	//lint:allow maporder
	_ = 1
	//lint:allow
	_ = 2
	//lint:allow walltime a proper reason
	_ = 3
}
`)
	s := collectSuppressions(fset, files)
	bad := s.bad
	if len(bad) != 2 {
		t.Fatalf("got %d bad suppressions, want 2: %v", len(bad), bad)
	}
	for _, d := range bad {
		if !strings.Contains(d.Message, "needs an analyzer name and a written reason") {
			t.Errorf("bad suppression message %q lacks the grammar hint", d.Message)
		}
	}
	// The malformed ones must not suppress anything.
	if s.allowed("maporder", fset.Position(bad[0].Pos)) {
		t.Error("reason-less allow still suppresses")
	}
}

// TestFileScopeAllow: an allow before the package clause covers the
// whole file — the escape hatch reserved for the kernel's documented
// concurrency boundary.
func TestFileScopeAllow(t *testing.T) {
	fset, files := parseOne(t, `//lint:allow kernelgo this file is the concurrency boundary

package p

func f() {}

func g() {}
`)
	s := collectSuppressions(fset, files)
	if len(s.bad) != 0 {
		t.Fatalf("unexpected bad suppressions: %v", s.bad)
	}
	for _, line := range []int{5, 7} {
		pos := token.Position{Filename: "fixture.go", Line: line}
		if !s.allowed("kernelgo", pos) {
			t.Errorf("line %d not covered by the file-scope allow", line)
		}
		if s.allowed("walltime", pos) {
			t.Errorf("file-scope allow for kernelgo leaked to walltime at line %d", line)
		}
	}
}

// TestTokenMarkerGrammar pins the //p2p: annotation parser, including
// the malformed shapes the fixtures cannot carry inline want comments
// for (the diagnostic lands on the marker's own line).
func TestTokenMarkerGrammar(t *testing.T) {
	cases := []struct {
		text    string
		bits    int
		badPart string // "" = well-formed
	}{
		{"//p2p:token", markToken, ""},
		{"//p2p:token hot-path clock read", markToken, ""},
		{"//p2p:tokenarg", markArg, ""},
		{"//p2p:tokenentry the kernel is idle at the boundary", markEntry, ""},
		{"//p2p:tokenentry", markEntry, "needs a written reason"},
		{"//p2p:frob", 0, "unknown annotation"},
		{"//p2p:", 0, "empty"},
		{"// not a marker", 0, ""},
	}
	for _, c := range cases {
		bits, bad := parseTokenMarker(c.text)
		if bits != c.bits {
			t.Errorf("parseTokenMarker(%q) bits = %d, want %d", c.text, bits, c.bits)
		}
		if c.badPart == "" && bad != "" {
			t.Errorf("parseTokenMarker(%q) unexpectedly malformed: %s", c.text, bad)
		}
		if c.badPart != "" && !strings.Contains(bad, c.badPart) {
			t.Errorf("parseTokenMarker(%q) bad = %q, want it to mention %q", c.text, bad, c.badPart)
		}
	}
}

func TestKernelPackage(t *testing.T) {
	cases := map[string]bool{
		"repro/internal/sim":   true,
		"repro/internal/vnet":  true,
		"repro/internal/serve": false,
		"repro/internal/exp":   false,
		"repro/cmd/p2plab":     false,
		"fmt":                  false,
	}
	for path, want := range cases {
		if got := KernelPackage(path); got != want {
			t.Errorf("KernelPackage(%q) = %v, want %v", path, got, want)
		}
	}
}
