package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// TokenHeld machine-checks DESIGN decision 11: the kernel's hot
// primitives (Schedule, LoopNow, Chan, Cond, Semaphore, park/wake)
// touch no mutex and are serialized purely by the execution token, so
// they may only be reached from code that demonstrably holds it.
// Before this analyzer the contract was "proved" by -race sampling;
// now it is a vet error.
//
// # Annotation grammar (DESIGN decision 13)
//
//	//p2p:token
//	    The function requires the execution token. Its body is a
//	    token context; its callers must be token contexts.
//	//p2p:tokenentry <reason>
//	    The function is a token context without requiring the token
//	    of its callers: Run, which lends the token out, and the cold
//	    API that set-up code also calls while the kernel is idle
//	    (At, After, Go, Event.Cancel). The reason is
//	    mandatory — entries are the audited boundary of the contract.
//	//p2p:tokenarg
//	    Function-typed arguments passed to this function are invoked
//	    with the token held (Kernel.Go task bodies, Schedule/At/After
//	    callbacks). A function literal passed directly to such a call
//	    is a token context.
//
// A parameter or receiver of type *sim.Proc is an implicit
// //p2p:token: a Proc handle only ever exists inside a simulated
// goroutine, so such functions both hold and require the token.
//
// A function literal with no marker of its own inherits its enclosing
// function's context. That is deliberate: kernel code constantly
// creates callbacks (timer closures, trace hooks) that the kernel
// invokes while the token is held, and the creating function's
// context is the best static approximation of the invoking one. The
// known unsoundness — a literal built in token context but executed
// host-side — is accepted; the race detector remains the backstop.
//
// Annotations propagate across packages as analysis facts keyed by
// types.Func.FullName, so vnet/bt/flow/serve callers of sim's
// annotated family are checked under `go vet` even though each
// package is analyzed separately.
var TokenHeld = &analysis.Analyzer{
	Name:      "tokenheld",
	Doc:       "enforce the execution-token contract: //p2p:token functions reachable only from token-holding contexts",
	UsesFacts: true,
	Run:       runTokenHeld,
}

// marker bits.
const (
	markToken = 1 << iota // requires + holds the token
	markEntry             // holds the token; callable from anywhere
	markArg               // func-typed args are invoked with the token
)

type tokenChecker struct {
	pass   *analysis.Pass
	local  map[string]int         // FullName → marker bits (this package)
	argCtx map[*ast.FuncLit]bool  // literals passed to tokenarg calls
	byLine map[string]map[int]int // file → comment end line → marker bits (for literals)
	proc   map[*types.Func]bool   // memo: implicit-token by *sim.Proc signature
}

func runTokenHeld(pass *analysis.Pass) error {
	tc := &tokenChecker{
		pass:   pass,
		local:  make(map[string]int),
		argCtx: make(map[*ast.FuncLit]bool),
		byLine: make(map[string]map[int]int),
		proc:   make(map[*types.Func]bool),
	}
	tc.collect()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				tc.walk(d.Body, tc.declCtx(d))
			case *ast.GenDecl:
				// Package-level initializers run host-side (init time).
				tc.walk(d, false)
			}
		}
	}
	return nil
}

// collect gathers this package's annotations, validates them, and
// exports them as facts for dependent packages.
func (tc *tokenChecker) collect() {
	pass := tc.pass
	for _, f := range pass.Files {
		// Index every comment by its end line so function literals can
		// carry markers on the preceding line.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				bits, bad := parseTokenMarker(c.Text)
				if bad != "" {
					pass.Reportf(c.Pos(), "tokenheld: %s", bad)
				}
				if bits == 0 {
					continue
				}
				p := pass.Fset.Position(c.End())
				m := tc.byLine[p.Filename]
				if m == nil {
					m = make(map[int]int)
					tc.byLine[p.Filename] = m
				}
				m[p.Line] |= bits
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				bits := markerBits(d.Doc)
				if bits == 0 {
					continue
				}
				fn, ok := pass.TypesInfo.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				tc.setMarkers(fn, bits)
			case *ast.GenDecl:
				// Interface methods may be annotated too (a seam whose
				// every implementation requires the token).
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					it, ok := ts.Type.(*ast.InterfaceType)
					if !ok {
						continue
					}
					for _, m := range it.Methods.List {
						bits := markerBits(m.Doc)
						if bits == 0 || len(m.Names) == 0 {
							continue
						}
						if fn, ok := pass.TypesInfo.Defs[m.Names[0]].(*types.Func); ok {
							tc.setMarkers(fn, bits)
						}
					}
				}
			}
		}
	}
}

func (tc *tokenChecker) setMarkers(fn *types.Func, bits int) {
	name := fn.Origin().FullName()
	tc.local[name] |= bits
	tc.pass.ExportFact(name, encodeMarkers(tc.local[name]))
}

// markers resolves the annotation bits of a function, local or
// imported.
func (tc *tokenChecker) markers(fn *types.Func) int {
	name := fn.Origin().FullName()
	if bits, ok := tc.local[name]; ok {
		return bits
	}
	if v, ok := tc.pass.ImportFact(name); ok {
		return decodeMarkers(v)
	}
	return 0
}

// tokenRequired reports whether calling fn requires the token.
func (tc *tokenChecker) tokenRequired(fn *types.Func) bool {
	if tc.markers(fn)&markToken != 0 {
		return true
	}
	return tc.implicitProc(fn)
}

func (tc *tokenChecker) implicitProc(fn *types.Func) bool {
	if v, ok := tc.proc[fn]; ok {
		return v
	}
	sig, ok := fn.Type().(*types.Signature)
	v := ok && signatureTakesProc(sig)
	tc.proc[fn] = v
	return v
}

func signatureTakesProc(sig *types.Signature) bool {
	if r := sig.Recv(); r != nil && isProcPtr(r.Type()) {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isProcPtr(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isProcPtr reports whether t is *sim.Proc. From go 1.23 the checker
// keeps an alias (repro.Proc = sim.Proc) as its own type node, so both
// levels are unaliased first.
func isProcPtr(t types.Type) bool {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Proc" && obj.Pkg() != nil &&
		NormalizeImportPath(obj.Pkg().Path()) == simPath
}

// declCtx decides whether a declared function's body is a token
// context.
func (tc *tokenChecker) declCtx(d *ast.FuncDecl) bool {
	bits := markerBits(d.Doc)
	if bits&(markToken|markEntry) != 0 {
		return true
	}
	if fn, ok := tc.pass.TypesInfo.Defs[d.Name].(*types.Func); ok && tc.implicitProc(fn) {
		return true
	}
	return false
}

// litCtx decides whether a function literal's body is a token context.
func (tc *tokenChecker) litCtx(lit *ast.FuncLit, inherited bool) bool {
	if tc.argCtx[lit] {
		return true
	}
	// A literal that takes a *sim.Proc holds the token for the same
	// reason a declared function does: Proc handles only exist inside
	// simulated goroutines.
	if sig, ok := tc.pass.TypesInfo.TypeOf(lit).(*types.Signature); ok && signatureTakesProc(sig) {
		return true
	}
	p := tc.pass.Fset.Position(lit.Pos())
	if m := tc.byLine[p.Filename]; m != nil {
		if m[p.Line-1]&(markToken|markEntry) != 0 || m[p.Line]&(markToken|markEntry) != 0 {
			return true
		}
	}
	return inherited
}

// walk traverses root checking calls, carrying the token context.
func (tc *tokenChecker) walk(root ast.Node, ctx bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == root {
			return true
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			tc.walk(n, tc.litCtx(n, ctx))
			return false
		case *ast.CallExpr:
			tc.checkCall(n, ctx)
		}
		return true
	})
}

func (tc *tokenChecker) checkCall(call *ast.CallExpr, ctx bool) {
	fn := staticCallee(tc.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if tc.markers(fn)&markArg != 0 {
		for _, arg := range call.Args {
			if lit, ok := unparen(arg).(*ast.FuncLit); ok {
				tc.argCtx[lit] = true
			}
		}
	}
	if !ctx && tc.tokenRequired(fn) {
		short := fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			short = recvTypeName(recv.Type()) + "." + short
		}
		tc.pass.Reportf(call.Pos(),
			"tokenheld: call to %s requires the execution token (//p2p:token) but the caller is not a token context; annotate the caller //p2p:token, mark an audited boundary //p2p:tokenentry <reason>, or use the idle-kernel API (Kernel.At/After/Now)",
			short)
	}
}

func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.IndexExpr: // generic instantiation: f[T](...)
		if id, ok := unparen(fun.X).(*ast.Ident); ok {
			obj = info.Uses[id]
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

func recvTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// markerBits folds the token markers of a doc comment group.
func markerBits(doc *ast.CommentGroup) int {
	if doc == nil {
		return 0
	}
	bits := 0
	for _, c := range doc.List {
		b, _ := parseTokenMarker(c.Text)
		bits |= b
	}
	return bits
}

// parseTokenMarker parses one comment line. bad is a non-empty
// description when the marker is malformed (unknown name, missing
// entry reason).
func parseTokenMarker(text string) (bits int, bad string) {
	rest, ok := strings.CutPrefix(text, "//p2p:")
	if !ok {
		return 0, ""
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return 0, "empty //p2p: annotation"
	}
	switch fields[0] {
	case "token":
		return markToken, ""
	case "tokenentry":
		if len(fields) < 2 {
			return markEntry, "//p2p:tokenentry needs a written reason: //p2p:tokenentry <reason>"
		}
		return markEntry, ""
	case "tokenarg":
		return markArg, ""
	default:
		return 0, "unknown annotation //p2p:" + fields[0] + " (known: token, tokenentry <reason>, tokenarg)"
	}
}

func encodeMarkers(bits int) string {
	var parts []string
	if bits&markToken != 0 {
		parts = append(parts, "token")
	}
	if bits&markEntry != 0 {
		parts = append(parts, "entry")
	}
	if bits&markArg != 0 {
		parts = append(parts, "arg")
	}
	return strings.Join(parts, ",")
}

func decodeMarkers(s string) int {
	bits := 0
	for _, p := range strings.Split(s, ",") {
		switch p {
		case "token":
			bits |= markToken
		case "entry":
			bits |= markEntry
		case "arg":
			bits |= markArg
		}
	}
	return bits
}
