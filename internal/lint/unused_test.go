package lint_test

import (
	"fmt"
	"go/ast"
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

// TestEveryDeclarationHasACaller type-checks the module's non-test
// files and fails on any declaration that no non-test code uses, and on
// any struct field that non-test code only ever stores to (DESIGN
// decision 13). bench/ counts as a caller but is not itself checked.
func TestEveryDeclarationHasACaller(t *testing.T) {
	for _, d := range findUnused(t, repoModule(t), "bench") {
		t.Error(d)
	}
}

// TestUnusedFixtures pins the check's rules on a small module under
// testdata/unused with // want comments: dead funcs and methods, an
// interface method nobody calls and its implementations, methods kept
// live by a module interface or by fmt, write-only fields, a field read
// through a generic instantiation, the tag and embedding exemptions,
// and an allow without a reason.
func TestUnusedFixtures(t *testing.T) {
	got := make(map[string][]string) // "file:line" → messages
	m, err := loadModule("testdata/unused")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range findUnused(t, m, "skipped") {
		pos, msg, _ := strings.Cut(d, ": ")
		got[pos] = append(got[pos], msg)
	}
	want := make(map[string][]*regexp.Regexp)
	wantRe := regexp.MustCompile(`want "((?:[^"\\]|\\.)*)"`)
	err = filepath.Walk("testdata/unused", func(path string, fi os.FileInfo, err error) error {
		if err != nil || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel("testdata/unused", path)
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				k := fmt.Sprintf("%s:%d", filepath.ToSlash(rel), i+1)
				want[k] = append(want[k], regexp.MustCompile(m[1]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pos, res := range want {
	next:
		for _, re := range res {
			for i, msg := range got[pos] {
				if re.MatchString(msg) {
					got[pos] = append(got[pos][:i], got[pos][i+1:]...)
					continue next
				}
			}
			t.Errorf("%s: no diagnostic matching %q", pos, re)
		}
	}
	for pos, msgs := range got {
		for _, msg := range msgs {
			t.Errorf("%s: unexpected diagnostic: %s", pos, msg)
		}
	}
}

// findUnused returns the findings on module m as "file:line: message",
// file relative to the module root, in load order. Packages under
// callerOnly count as callers only: their uses count, their
// declarations are not checked.
func findUnused(t *testing.T, m *module, callerOnly string) []string {
	t.Helper()
	u := &unusedCheck{
		callerOnly: callerOnly,
		decls:      make(map[types.Object]*ast.Ident),
		extent:     make(map[types.Object][]ast.Node),
		uses:       make(map[types.Object]bool),
		reads:      make(map[types.Object]bool),
		stores:     make(map[*ast.Ident]bool),
		live:       make(map[types.Object]bool),
		label:      make(map[types.Object]string),
	}
	for _, p := range m.pkgs {
		u.collect(p)
	}
	for _, p := range m.pkgs {
		u.use(p)
	}
	u.implementations(m.pkgs, m.byPath)

	var found []analysis.Diagnostic
	for _, p := range m.pkgs {
		if p.under(callerOnly) {
			continue
		}
		// Findings go through lint.Check, so //lint:allow unused means
		// what it means to every analyzer.
		unused := &analysis.Analyzer{Name: "unused", Run: func(pass *analysis.Pass) error {
			for obj, id := range u.decls {
				if obj.Pkg() != p.pkg {
					continue
				}
				if msg := u.verdict(obj); msg != "" {
					pass.Reportf(id.Pos(), "unused: %s", msg)
				}
			}
			return nil
		}}
		diags, err := lint.Check(m.fset, p.files, p.pkg, p.info, []*analysis.Analyzer{unused}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		found = append(found, diags...)
	}
	sort.Slice(found, func(a, b int) bool { return found[a].Pos < found[b].Pos })
	findings := make([]string, len(found))
	for i, d := range found {
		findings[i] = m.where(d.Pos) + ": " + d.Message
	}
	return findings
}

type unusedCheck struct {
	// callerOnly is the directory whose declarations are not checked.
	callerOnly string
	// decls maps every checked declaration to its name.
	decls map[types.Object]*ast.Ident
	// extent holds the nodes inside which a use of the object is a use
	// by itself: a func's body, a type's own methods.
	extent map[types.Object][]ast.Node
	// uses and reads hold the (origin) objects used anywhere outside
	// their own extent; reads only those used other than as a store.
	uses, reads map[types.Object]bool
	// stores holds the field identifiers that are store targets.
	stores map[*ast.Ident]bool
	// label names a field by its struct type.
	label map[types.Object]string
	// live holds the methods an interface call reaches.
	live map[types.Object]bool
}

// origin maps an instantiated object back to its generic declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// collect records the package's declarations (unless it is a caller
// only) and the extents of its funcs and methods.
func (u *unusedCheck) collect(p *checkedPkg) {
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj := p.info.Defs[d.Name]
				u.extent[obj] = append(u.extent[obj], d)
				if d.Recv != nil {
					// A type's own methods do not keep it alive.
					if tn := recvTypeName(p.info, d.Recv.List[0].Type); tn != nil {
						u.extent[tn] = append(u.extent[tn], d)
					}
				} else if d.Name.Name == "main" || d.Name.Name == "init" {
					continue
				}
				u.declare(p, d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						u.extent[p.info.Defs[s.Name]] = append(u.extent[p.info.Defs[s.Name]], s)
						u.declare(p, s.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							u.declare(p, n)
						}
					}
				}
			}
		}
		// Fields and interface methods, wherever their type is declared.
		owner := make(map[*ast.StructType]string)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					owner[st] = n.Name.Name + "."
				}
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if field.Tag != nil || len(field.Names) == 0 {
						continue // tagged and embedded fields are exempt
					}
					for _, name := range field.Names {
						u.declare(p, name)
						u.label[p.info.Defs[name]] = owner[n] + name.Name
					}
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						u.declare(p, name)
					}
				}
			}
			return true
		})
	}
}

func (u *unusedCheck) declare(p *checkedPkg, id *ast.Ident) {
	if p.under(u.callerOnly) || id.Name == "_" {
		return
	}
	if obj := p.info.Defs[id]; obj != nil {
		u.decls[obj] = id
	}
}

func recvTypeName(info *types.Info, x ast.Expr) types.Object {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return info.Uses[e]
		default:
			return nil
		}
	}
}

// use records every use in the package's files, and which field uses
// are stores: an assignment target (x.f = v, x.f[k] = v,
// x.f = append(x.f, v)), ++/--, or a composite-literal element.
func (u *unusedCheck) use(p *checkedPkg) {
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					target := u.storeTarget(p.info, lhs)
					if target == nil || len(n.Lhs) != len(n.Rhs) {
						continue
					}
					// x.f = append(x.f, ...) only grows what it stores.
					if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok && len(call.Args) > 0 {
						if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && p.info.Uses[fn] == types.Universe.Lookup("append") {
							if sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok && origin(p.info.Uses[sel.Sel]) == origin(p.info.Uses[target]) {
								u.stores[sel.Sel] = true
							}
						}
					}
				}
			case *ast.IncDecStmt:
				u.storeTarget(p.info, n.X)
			case *ast.CompositeLit:
				t := p.info.Types[n].Type
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				if t == nil {
					return true
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							u.stores[id] = true
						}
					} else if i < st.NumFields() {
						// A positional literal stores every field.
						u.note(n.Pos(), origin(st.Field(i)), true)
					}
				}
			}
			return true
		})
	}
	for id, obj := range p.info.Uses {
		u.note(id.Pos(), origin(obj), u.stores[id])
	}
}

// storeTarget marks the field a store expression writes, if any, and
// returns its identifier.
func (u *unusedCheck) storeTarget(info *types.Info, x ast.Expr) *ast.Ident {
	for {
		switch e := ast.Unparen(x).(type) {
		case *ast.IndexExpr:
			x = e.X
		case *ast.SelectorExpr:
			if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.IsField() {
				u.stores[e.Sel] = true
				return e.Sel
			}
			return nil
		default:
			return nil
		}
	}
}

func (u *unusedCheck) note(pos token.Pos, obj types.Object, store bool) {
	if _, ok := u.decls[obj]; !ok {
		if _, ok := obj.(*types.Func); !ok {
			return // methods need recording for interface calls
		}
	}
	for _, n := range u.extent[obj] {
		if n.Pos() <= pos && pos < n.End() {
			return
		}
	}
	u.uses[obj] = true
	if !store {
		u.reads[obj] = true
	}
}

// implementations marks live every method that implements a called
// interface method: one used by module code, or any method of an
// interface declared in a package the module imports.
func (u *unusedCheck) implementations(pkgs []*checkedPkg, byPath map[string]*checkedPkg) {
	type iface struct {
		t        *types.Interface
		external bool
	}
	var ifaces []iface
	var concrete []types.Type
	seen := make(map[types.Type]bool)
	addConcrete := func(t types.Type) {
		if !seen[t] {
			seen[t] = true
			concrete = append(concrete, t)
		}
	}
	seenPkg := make(map[*types.Package]bool)
	for _, p := range pkgs {
		for _, imp := range p.pkg.Imports() {
			if byPath[imp.Path()] != nil || seenPkg[imp] {
				continue
			}
			seenPkg[imp] = true
			for _, name := range imp.Scope().Names() {
				tn, ok := imp.Scope().Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
					ifaces = append(ifaces, iface{it, true})
				}
			}
		}
	}
	ifaces = append(ifaces, iface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface), true})
	for _, p := range pkgs {
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() && !seen[tv.Type] {
				seen[tv.Type] = true
				ifaces = append(ifaces, iface{it, false})
			}
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if _, ok := tn.Type().Underlying().(*types.Interface); !ok {
					addConcrete(tn.Type())
				}
			}
		}
		for _, inst := range p.info.Instances {
			if n, ok := inst.Type.(*types.Named); ok {
				if _, ok := n.Underlying().(*types.Interface); !ok {
					addConcrete(n)
				}
			}
		}
	}
	for _, t := range concrete {
		ptr := types.NewPointer(t)
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
		for _, it := range ifaces {
			if mset.Lookup(it.t.Method(0).Pkg(), it.t.Method(0).Name()) == nil {
				continue
			}
			if !types.Implements(ptr, it.t) {
				continue
			}
			for i := 0; i < it.t.NumMethods(); i++ {
				im := it.t.Method(i)
				if !it.external && !u.uses[origin(im)] {
					continue
				}
				if sel := mset.Lookup(im.Pkg(), im.Name()); sel != nil {
					u.live[origin(sel.Obj())] = true
				}
			}
		}
	}
}

// verdict returns the finding for a declaration, or "".
func (u *unusedCheck) verdict(obj types.Object) string {
	name := obj.Name()
	kind := "declaration"
	switch o := obj.(type) {
	case *types.Func:
		kind = "func"
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			kind = "method"
			name = typeName(recv.Type()) + "." + name
		}
	case *types.Var:
		if o.IsField() {
			kind = "field"
			name = u.label[obj]
		} else {
			kind = "var"
		}
	case *types.Const:
		kind = "const"
	case *types.TypeName:
		kind = "type"
	}
	switch {
	case u.live[obj]:
		return ""
	case !u.uses[obj]:
		return fmt.Sprintf("%s %s has no non-test use", kind, name)
	case kind == "field" && !u.reads[obj]:
		return fmt.Sprintf("field %s is only ever stored to", name)
	}
	return ""
}

func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return "interface"
}
