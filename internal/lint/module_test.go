package lint_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

// listedPkg is the part of `go list -json` output the loader reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct {
		Main      bool
		GoVersion string
	}
}

// module holds the packages of one module, their non-test files parsed
// and type-checked, dependencies first.
type module struct {
	dir    string // absolute
	fset   *token.FileSet
	pkgs   []*checkedPkg
	byPath map[string]*checkedPkg
}

type checkedPkg struct {
	path  string
	rel   string // directory relative to the module root, slash-separated
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// under reports whether the package lies in dir or below it.
func (p *checkedPkg) under(dir string) bool {
	return p.rel == dir || strings.HasPrefix(p.rel, dir+"/")
}

// where formats pos as "file:line", file relative to the module root.
func (m *module) where(pos token.Pos) string {
	at := m.fset.Position(pos)
	rel, _ := filepath.Rel(m.dir, at.Filename)
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), at.Line)
}

// repo is this repository's module, loaded once for every test here
// that reads it.
var repo struct {
	once sync.Once
	m    *module
	err  error
}

func repoModule(t *testing.T) *module {
	t.Helper()
	repo.once.Do(func() { repo.m, repo.err = loadModule("../..") })
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.m
}

// loadModule loads every package of the module rooted at dir, as
// `go list ./...` names them (bench/, cmd/ and examples/ included), the
// way the compiler sees them: non-test files, type-checked at the
// module's go version with gc sizes, against the export data of every
// package outside the module.
func loadModule(dir string) (*module, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "GOTOOLCHAIN=local")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	m := &module{fset: token.NewFileSet(), byPath: make(map[string]*checkedPkg)}
	if m.dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}

	exports := make(map[string]string)
	var mod []listedPkg
	for d := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := d.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Module != nil && p.Module.Main {
			mod = append(mod, p)
		} else {
			exports[p.ImportPath] = p.Export
		}
	}
	gc := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := &types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if p := m.byPath[path]; p != nil {
				return p.pkg, nil
			}
			return gc.Import(path)
		}),
		Sizes: types.SizesFor("gc", build.Default.GOARCH),
	}

	// go list -deps prints dependencies first, so each module package
	// finds its module imports already checked.
	for _, lp := range mod {
		cp := &checkedPkg{path: lp.ImportPath}
		rel, _ := filepath.Rel(m.dir, lp.Dir)
		cp.rel = filepath.ToSlash(rel)
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			cp.files = append(cp.files, f)
		}
		cp.info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Instances:  make(map[*ast.Ident]types.Instance),
			Scopes:     make(map[ast.Node]*types.Scope),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf.GoVersion = "go" + lp.Module.GoVersion
		if cp.pkg, err = conf.Check(lp.ImportPath, m.fset, cp.files, cp.info); err != nil {
			return nil, fmt.Errorf("typecheck %s: %v", lp.ImportPath, err)
		}
		m.byPath[cp.path] = cp
		m.pkgs = append(m.pkgs, cp)
	}
	return m, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestModuleVetsClean runs the five analyzers over every package of the
// module and fails on any finding (DESIGN decision 13). The packages go
// dependencies first through one fact set, as linttest.Run takes its
// fixtures, so sim's //p2p: annotations reach every caller; the run
// must leave tokenheld's fact for Kernel.Schedule in the set, or the
// facts did not flow and a clean result proves nothing.
func TestModuleVetsClean(t *testing.T) {
	m := repoModule(t)
	facts := analysis.NewFactSet()
	for _, p := range m.pkgs {
		diags, err := lint.Check(m.fset, p.files, p.pkg, p.info, lint.Analyzers(), facts, facts)
		if err != nil {
			t.Fatalf("%s: %v", p.path, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s", m.where(d.Pos), d.Message)
		}
	}
	const schedule = "(*repro/internal/sim.Kernel).Schedule"
	if v, ok := facts.Get(lint.TokenHeld.Name, schedule); v != "token,arg" {
		t.Errorf("tokenheld fact for %s = (%q, %v), want (\"token,arg\", true)", schedule, v, ok)
	}
}

// usesOutside returns where a module package outside dirs refers to the
// function whose types.Func.FullName is name, sorted.
func (m *module) usesOutside(name string, dirs ...string) []string {
	var found []string
next:
	for _, p := range m.pkgs {
		for _, dir := range dirs {
			if p.under(dir) {
				continue next
			}
		}
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.FullName() == name {
				found = append(found, m.where(id.Pos()))
			}
		}
	}
	sort.Strings(found)
	return found
}

// TestOneAssembler: scenario.Assemble is the only builder of kernel,
// network and cluster (DESIGN decision 14). bench/ drives the raw
// layers on purpose.
func TestOneAssembler(t *testing.T) {
	m := repoModule(t)
	for _, fn := range []string{"repro/internal/sim.New", "repro/internal/vnet.NewNetwork", "repro/internal/virt.NewCluster"} {
		for _, at := range m.usesOutside(fn, "internal/scenario", "bench") {
			t.Errorf("%s: %s outside scenario.Assemble", at, fn)
		}
	}
}

// TestOneAcceptLoop: vnet.Listener.Serve is the only loop that accepts
// connections and spawns their tasks (DESIGN decision 11). The
// examples show the raw socket calls on purpose.
func TestOneAcceptLoop(t *testing.T) {
	for _, at := range repoModule(t).usesOutside("(*repro/internal/vnet.Listener).Accept", "internal/vnet", "examples") {
		t.Errorf("%s: accept loop outside vnet.Listener.Serve", at)
	}
}

// TestNoUnsafeOutsideTests: a task struct keeps its coroutine whatever
// its stack grew to (DESIGN decision 11), so nothing in the program
// reads a stack address, and no program file imports unsafe. Tests may.
func TestNoUnsafeOutsideTests(t *testing.T) {
	m := repoModule(t)
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"unsafe"` {
					t.Errorf("%s: package unsafe imported outside tests", m.where(imp.Pos()))
				}
			}
		}
	}
}

// TestNoKernelGoException: no kernel-driven package runs native
// concurrency, and none is excused (DESIGN decision 13). The analyzers
// read non-test files only, so these hold every allow that could take
// effect; internal/lint's own are its fixtures' business.
func TestNoKernelGoException(t *testing.T) {
	m := repoModule(t)
	for _, p := range m.pkgs {
		if p.under("internal/lint") {
			continue
		}
		for _, f := range p.files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//lint:allow")
					if fields := strings.Fields(rest); ok && len(fields) > 0 && fields[0] == lint.KernelGo.Name {
						t.Errorf("%s: kernelgo suppressed outside internal/lint", m.where(c.Pos()))
					}
				}
			}
		}
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
	for _, p := range repoModule(t).pkgs {
		name, ok := strings.CutPrefix(p.path, lint.ModulePath+"/internal/")
		if !ok || name == "sim" || lint.KernelPackage(p.path) || hostSide[name] {
			continue
		}
		for _, imp := range p.pkg.Imports() {
			if imp.Path() == lint.ModulePath+"/internal/sim" {
				t.Errorf("internal/%s imports sim, but is neither kernel-driven nor host-side", name)
			}
		}
	}
}
