package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Suppression grammar (DESIGN decision 13):
//
//	//lint:allow <analyzer> <reason>
//
// placed either on the offending line, on the line immediately above
// it, in a function's doc comment (covering the whole function), or
// before the package clause (covering the whole file — reserved for
// the documented concurrency boundary, i.e. the kernel's own
// implementation). The reason is mandatory: a suppression without one
// is itself a diagnostic, so every exception to an invariant carries
// its justification in the source.

type lineAllow struct {
	analyzer string
	line     int
}

type rangeAllow struct {
	analyzer   string
	start, end int
}

// suppressions indexes every //lint:allow comment of a package, keyed
// by file; bad holds the malformed ones (missing analyzer or reason),
// which drivers report unconditionally.
type suppressions struct {
	lines  map[string]map[lineAllow]bool
	ranges map[string][]rangeAllow
	bad    []analysis.Diagnostic
}

// collectSuppressions scans the given files for //lint:allow comments.
func collectSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{
		lines:  make(map[string]map[lineAllow]bool),
		ranges: make(map[string][]rangeAllow),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c.End() < f.Package {
					// Before the package clause: file-scope allow.
					if name, reason, ok := parseAllow(c.Text); ok && name != "" && reason != "" {
						pos := fset.Position(c.Pos())
						end := fset.Position(f.End())
						s.ranges[pos.Filename] = append(s.ranges[pos.Filename],
							rangeAllow{analyzer: name, start: 1, end: end.Line})
						continue
					}
				}
				s.addComment(fset, c)
			}
		}
		// A function-doc allow covers the function's whole extent.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				name, reason, ok := parseAllow(c.Text)
				if !ok || name == "" || reason == "" {
					continue
				}
				pos := fset.Position(fd.Pos())
				end := fset.Position(fd.End())
				s.ranges[pos.Filename] = append(s.ranges[pos.Filename],
					rangeAllow{analyzer: name, start: pos.Line, end: end.Line})
			}
		}
		// An allow on (or directly above) a range statement covers the
		// whole loop, so one justified comment clears a loop body.
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			pos := fset.Position(rs.Pos())
			end := fset.Position(rs.End())
			for la := range s.lines[pos.Filename] {
				if la.line == pos.Line {
					s.ranges[pos.Filename] = append(s.ranges[pos.Filename],
						rangeAllow{analyzer: la.analyzer, start: pos.Line, end: end.Line})
				}
			}
			return true
		})
	}
	return s
}

func (s *suppressions) addComment(fset *token.FileSet, c *ast.Comment) {
	name, reason, ok := parseAllow(c.Text)
	if !ok {
		return
	}
	pos := fset.Position(c.Pos())
	if name == "" || reason == "" {
		s.bad = append(s.bad, analysis.Diagnostic{
			Pos:     c.Pos(),
			Message: "lint:allow needs an analyzer name and a written reason: //lint:allow <analyzer> <reason>",
		})
		return
	}
	m := s.lines[pos.Filename]
	if m == nil {
		m = make(map[lineAllow]bool)
		s.lines[pos.Filename] = m
	}
	// The comment covers its own line (trailing form) and the line
	// below it (stand-alone form above the offending statement).
	m[lineAllow{analyzer: name, line: pos.Line}] = true
	m[lineAllow{analyzer: name, line: pos.Line + 1}] = true
}

// parseAllow splits "//lint:allow walltime some reason" into its
// analyzer name and reason. ok is false for non-suppression comments.
func parseAllow(text string) (analyzer, reason string, ok bool) {
	rest, found := strings.CutPrefix(text, "//lint:allow")
	if !found {
		return "", "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", "", true
	}
	return fields[0], strings.Join(fields[1:], " "), true
}

// allowed reports whether a diagnostic of the named analyzer at pos is
// suppressed.
func (s *suppressions) allowed(analyzer string, pos token.Position) bool {
	if s.lines[pos.Filename][lineAllow{analyzer: analyzer, line: pos.Line}] {
		return true
	}
	for _, r := range s.ranges[pos.Filename] {
		if r.analyzer == analyzer && r.start <= pos.Line && pos.Line <= r.end {
			return true
		}
	}
	return false
}

// Check runs analyzers over one typechecked package, as p2pvet runs
// them on a compilation unit. Each analyzer reads its dependencies'
// facts from imported and publishes its own into exported (the two may
// be one set). It returns the malformed //lint:allow comments, then
// every finding no allow comment covers; a finding's analyzer is the
// first word of its message, up to the colon.
func Check(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info,
	analyzers []*analysis.Analyzer, imported, exported analysis.FactSet) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			Report:     func(d analysis.Diagnostic) { diags = append(diags, d) },
			ImportFact: func(key string) (string, bool) { return imported.Get(a.Name, key) },
			ExportFact: func(key, value string) { exported.Set(a.Name, key, value) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	sup := collectSuppressions(fset, files)
	out := sup.bad
	for _, d := range diags {
		name, _, ok := strings.Cut(d.Message, ":")
		if !ok || !sup.allowed(name, fset.Position(d.Pos)) {
			out = append(out, d)
		}
	}
	return out, nil
}
