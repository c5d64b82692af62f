// Package linttest is a hermetic analysistest replacement for the
// internal/lint analyzer suite. It loads fixture packages from a
// testdata/src tree (import path = directory path, so fixtures can
// impersonate kernel-driven module packages and even the standard
// library), typechecks them from source, runs one analyzer through
// lint.Check — the runner and //lint:allow filter the module's own run
// (TestModuleVetsClean) uses — and matches the resulting diagnostics
// against // want "regexp" comments.
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

// Run loads srcRoot/<pkgPath> (and, recursively, every fixture package
// it imports), runs a on all of them in dependency order — so facts
// flow across fixture package boundaries exactly as they flow across
// the module's packages — and checks every loaded fixture's
// diagnostics against its // want comments.
//
//lint:allow unused test support: the lint package's tests run every analyzer fixture through it
func Run(t *testing.T, srcRoot, pkgPath string, a *analysis.Analyzer) {
	t.Helper()
	l := &loader{
		t:       t,
		root:    srcRoot,
		fset:    token.NewFileSet(),
		pkgs:    make(map[string]*loadedPkg),
		loading: make(map[string]bool),
	}
	l.load(pkgPath)

	facts := analysis.NewFactSet()
	for _, p := range l.order { // dependencies first
		diags, err := lint.Check(l.fset, p.files, p.pkg, p.info, []*analysis.Analyzer{a}, facts, facts)
		if err != nil {
			t.Fatalf("%s: %v", p.path, err)
		}
		l.check(p, diags)
	}
}

type loadedPkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

type loader struct {
	t       *testing.T
	root    string
	fset    *token.FileSet
	pkgs    map[string]*loadedPkg
	loading map[string]bool
	order   []*loadedPkg // topological: dependencies before dependents
}

func (l *loader) load(path string) *loadedPkg {
	if p, ok := l.pkgs[path]; ok {
		return p
	}
	if l.loading[path] {
		l.t.Fatalf("fixture import cycle at %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		l.t.Fatalf("fixture package %q: %v", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			l.t.Fatalf("parse %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		l.t.Fatalf("fixture package %q has no Go files", path)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	cfg := &types.Config{Importer: importerFunc(func(ipath string) (*types.Package, error) {
		dep := l.load(ipath) // recursion yields dependency-first order
		return dep.pkg, nil
	})}
	pkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		l.t.Fatalf("typecheck %q: %v", path, err)
	}
	p := &loadedPkg{path: path, files: files, pkg: pkg, info: info}
	l.pkgs[path] = p
	l.order = append(l.order, p)
	return p
}

// wantRe extracts the quoted regexps of a `// want "..." "..."` comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// check matches diagnostics against the package's want comments:
// every want must be hit by a diagnostic on its line, and every
// diagnostic must be claimed by a want.
func (l *loader) check(p *loadedPkg, diags []analysis.Diagnostic) {
	l.t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, rest, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := l.fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(rest, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						l.t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	unmatched := make(map[key][]*regexp.Regexp)
	for k, v := range wants {
		unmatched[k] = append([]*regexp.Regexp(nil), v...)
	}
	for _, d := range diags {
		pos := l.fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		rest := unmatched[k]
		hit := -1
		for i, re := range rest {
			if re.MatchString(d.Message) {
				hit = i
				break
			}
		}
		if hit < 0 {
			l.t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
			continue
		}
		unmatched[k] = append(rest[:hit], rest[hit+1:]...)
	}
	var missed []string
	for k, res := range unmatched {
		for _, re := range res {
			missed = append(missed, fmt.Sprintf("%s:%d: no diagnostic matching %q", k.file, k.line, re))
		}
	}
	sort.Strings(missed)
	for _, m := range missed {
		l.t.Error(m)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
