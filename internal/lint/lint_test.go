package lint_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each fixture package impersonates a kernel-driven import path (the
// analyzers key on the path, and testdata trees can claim any path
// they like) and pins the analyzer's behavior with // want comments.

func TestWallTime(t *testing.T) {
	linttest.Run(t, "testdata/src", "repro/internal/sched", lint.WallTime)
}

func TestDetRand(t *testing.T) {
	linttest.Run(t, "testdata/src", "repro/internal/churn", lint.DetRand)
}

func TestMapOrder(t *testing.T) {
	linttest.Run(t, "testdata/src", "repro/internal/gossip", lint.MapOrder)
}

func TestKernelGo(t *testing.T) {
	linttest.Run(t, "testdata/src", "repro/internal/netem", lint.KernelGo)
}

// TestTokenHeld loads a fake sim package and a vnet caller: the
// //p2p: annotations must cross the package boundary as facts.
func TestTokenHeld(t *testing.T) {
	linttest.Run(t, "testdata/src", "repro/internal/vnet", lint.TokenHeld)
}

// TestNonKernelPackagesAreExempt runs the whole suite over a host-side
// fixture full of wall clocks, global rand, sync and channels: the
// kernel-scoped analyzers must stay silent outside kernel-driven
// import paths (and tokenheld, which is module-wide, has nothing to
// say about code that never touches the token surface).
func TestNonKernelPackagesAreExempt(t *testing.T) {
	for _, a := range lint.Analyzers() {
		linttest.Run(t, "testdata/src", "repro/internal/hostexp", a)
	}
}

// hostSide names the internal packages that import sim but drive
// kernels from the host side — they build runs, wait on them and read
// their results, with wall clocks and goroutines of their own — so the
// kernel-scoped analyzers skip them.
var hostSide = map[string]bool{"exp": true, "serve": true}

// TestSimImportersAreKernelDriven: every internal package whose
// non-test code imports sim is kernel-driven or named host-side, so a
// package that comes to run on the virtual timeline cannot slip past
// the kernel-scoped analyzers unlisted.
func TestSimImportersAreKernelDriven(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(filepath.Clean(path)))
		pkg = strings.TrimPrefix(pkg, "../")
		for _, imp := range f.Imports {
			if imp.Path.Value != `"repro/internal/sim"` || pkg == "sim" {
				continue
			}
			if !lint.KernelPackage("repro/internal/"+pkg) && !hostSide[pkg] {
				t.Errorf("%s imports sim, but internal/%s is neither kernel-driven nor host-side", path, pkg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
