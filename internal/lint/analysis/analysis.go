// Package analysis is a minimal, dependency-free analogue of the
// golang.org/x/tools/go/analysis framework, carrying exactly what the
// internal/lint analyzers need: a named Analyzer with a Run function, a
// Pass giving it one typechecked package, and a flat string-valued fact
// store for cross-package propagation.
//
// It exists because this repository builds offline against the
// standard library only; the x/tools module is deliberately not a
// dependency. The shapes mirror x/tools closely enough that porting
// the analyzers onto the real framework later is mechanical.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one static check. Name appears in diagnostics and in
// suppression comments (//lint:allow <name> <reason>).
type Analyzer struct {
	Name string
	Run  func(*Pass) error
}

// Diagnostic is one finding, positioned inside Pass.Fset.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass gives an analyzer one typechecked package.
//
// Files holds only the files the analyzer should report on: drivers
// exclude _test.go files, since the invariants the suite enforces bind
// emulation code, not host-side test harnesses.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records one diagnostic. The driver owns suppression
	// (//lint:allow) filtering; analyzers always report.
	Report func(Diagnostic)

	// ImportFact looks up a fact exported by this package's (transitive)
	// dependencies under the running analyzer's namespace. Keys are
	// analyzer-chosen; tokenheld uses types.Func.FullName.
	ImportFact func(key string) (string, bool)

	// ExportFact publishes a fact for dependent packages.
	ExportFact func(key, value string)
}

// Reportf formats and records one diagnostic.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: sprintf(format, args...)})
}
