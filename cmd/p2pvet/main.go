// Command p2pvet is the project's static-analysis vet tool. It drives
// the internal/lint analyzer suite (walltime, detrand, maporder,
// kernelgo, tokenheld — see DESIGN decision 13) under the protocol
// `go vet -vettool` expects from an analysis driver:
//
//	-V=full    describe the executable (for the build cache)
//	-flags     describe supported flags in JSON
//	unit.cfg   analyze one compilation unit described by a JSON file
//
// The protocol (and the vetx fact chaining it implies) matches
// golang.org/x/tools/go/analysis/unitchecker; this driver reimplements
// it on the standard library alone so the repository stays
// dependency-free.
//
// Invoked with anything else (package patterns, typically), it
// re-executes itself through the go command:
//
//	p2pvet ./...   ≡   go vet -vettool=$(which p2pvet) ./...
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"os/exec"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

// vetConfig holds the fields p2pvet reads from the JSON
// compilation-unit description the go command writes for vet tools
// (x/tools unitchecker.Config); json.Unmarshal skips the rest.
type vetConfig struct {
	Compiler                  string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("p2pvet: ")

	args := os.Args[1:]
	var cfgPath string
	var passthrough []string
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			printVersion()
			return
		case a == "-flags" || a == "--flags":
			printFlags()
			return
		case strings.HasSuffix(a, ".cfg"):
			cfgPath = a
		case strings.HasPrefix(a, "-"):
			// Analyzer-selection flags are accepted for protocol
			// compatibility; the suite always runs whole.
		default:
			passthrough = append(passthrough, a)
		}
	}
	switch {
	case cfgPath != "":
		os.Exit(unit(cfgPath))
	case len(passthrough) > 0:
		os.Exit(selfVet(passthrough))
	default:
		fmt.Fprintln(os.Stderr, "usage: p2pvet ./...   (or, from go vet: go vet -vettool=$(which p2pvet) ./...)")
		os.Exit(2)
	}
}

// printVersion implements the -V=full half of the go command's tool-ID
// protocol: the output embeds a content hash of the executable so the
// build cache invalidates vet results when the tool changes.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", exe, string(h.Sum(nil)))
}

// printFlags tells go vet which flags this tool understands.
func printFlags() {
	type jsonFlag struct {
		Name  string `json:"Name"`
		Bool  bool   `json:"Bool"`
		Usage string `json:"Usage"`
	}
	var flags []jsonFlag
	for _, a := range lint.Analyzers() {
		flags = append(flags, jsonFlag{Name: a.Name, Bool: true, Usage: a.Doc})
	}
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

// selfVet re-executes the tool through `go vet -vettool=self`.
func selfVet(patterns []string) int {
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		log.Fatal(err)
	}
	return 0
}

// unit analyzes one compilation unit and returns the process exit
// code.
func unit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		log.Fatal(err)
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		log.Fatalf("cannot decode vet config %s: %v", cfgPath, err)
	}

	importPath := lint.NormalizeImportPath(cfg.ImportPath)
	files := analyzableFiles(cfg.GoFiles)
	if !lint.InModule(importPath) || len(files) == 0 {
		// Out-of-module dependencies (the standard library) and pure
		// test packages carry no p2pvet obligations; publish an empty
		// fact set so the vetx chain stays complete.
		writeVetx(cfg, analysis.NewFactSet())
		return 0
	}

	fset := token.NewFileSet()
	var parsed []*ast.File
	var analyzed []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0 // the compiler will report it
			}
			log.Fatal(err)
		}
		parsed = append(parsed, f)
		if !strings.HasSuffix(name, "_test.go") {
			analyzed = append(analyzed, f)
		}
	}

	pkg, info, err := typecheck(fset, cfg, parsed)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		log.Fatalf("typechecking %s: %v", importPath, err)
	}

	imported := analysis.NewFactSet()
	for _, vetx := range cfg.PackageVetx {
		b, err := os.ReadFile(vetx)
		if err != nil {
			continue // a dependency with no fact file has no facts
		}
		fs, err := analysis.DecodeFacts(b)
		if err != nil {
			log.Fatalf("corrupt vetx %s: %v", vetx, err)
		}
		imported.Merge(fs)
	}

	out := analysis.NewFactSet()
	out.Merge(imported) // facts propagate transitively

	analyzers := lint.Analyzers()
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		if cfg.VetxOnly && !a.UsesFacts {
			continue
		}
		a := a
		pass := &analysis.Pass{
			Fset:      fset,
			Files:     analyzed,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
			ImportFact: func(key string) (string, bool) {
				return imported.Get(a.Name, key)
			},
			ExportFact: func(key, value string) {
				out.Set(a.Name, key, value)
			},
		}
		if err := a.Run(pass); err != nil {
			log.Fatalf("analyzer %s: %v", a.Name, err)
		}
	}
	writeVetx(cfg, out)

	if cfg.VetxOnly {
		return 0
	}
	sup := lint.CollectSuppressions(fset, analyzed)
	exit := 0
	report := func(d analysis.Diagnostic) {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
		exit = 1
	}
	for _, d := range sup.Bad() {
		report(d)
	}
	for _, d := range diags {
		if !suppressed(sup, fset, d) {
			report(d)
		}
	}
	return exit
}

// suppressed matches a diagnostic against //lint:allow comments. The
// analyzer name is the first word of the message up to the colon.
func suppressed(sup *lint.Suppressions, fset *token.FileSet, d analysis.Diagnostic) bool {
	name, _, ok := strings.Cut(d.Message, ":")
	if !ok {
		return false
	}
	return sup.Allowed(name, fset.Position(d.Pos))
}

func analyzableFiles(names []string) []string {
	var out []string
	for _, n := range names {
		if !strings.HasSuffix(n, "_test.go") {
			out = append(out, n)
		}
	}
	return out
}

func typecheck(fset *token.FileSet, cfg *vetConfig, files []*ast.File) (*types.Package, *types.Info, error) {
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		// path is a resolved package path, not an import spec.
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath] // resolve vendoring etc.
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		return compilerImporter.Import(path)
	})
	tc := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
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
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	return pkg, info, err
}

func writeVetx(cfg *vetConfig, fs analysis.FactSet) {
	if cfg.VetxOutput == "" {
		return
	}
	data, err := fs.Encode()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(cfg.VetxOutput, data, 0o666); err != nil {
		log.Fatal(err)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
