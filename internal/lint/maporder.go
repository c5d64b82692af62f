package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// MapOrder flags `range` over a map in kernel-driven packages when the
// loop body does anything order-sensitive. Go randomizes map iteration
// order per run, so any schedule, send, append or shared-state write
// that happens inside such a loop injects that randomness straight
// into the virtual timeline — the exact bug class the golden-trace
// digests caught twice (PRs 4 and 5) after the fact.
//
// The body classification is deliberately conservative; what it deems
// order-insensitive without help:
//
//   - pure builtins (len, cap, min, max, new) and type conversions
//   - delete — set subtraction is commutative
//   - integer accumulation into outer state (x++, x += v, x |= v, …);
//     float accumulation is NOT exempt (rounding is order-dependent)
//   - plain writes into an outer map/slice indexed by the iteration
//     key — distinct keys make those writes commutative
//
// Anything else — any other function call, any send, spawn or defer,
// any other write to state declared outside the loop — is reported.
// Genuinely order-insensitive loops (e.g. collect-then-sort) carry a
// justified //lint:allow maporder <reason>.
var MapOrder = &analysis.Analyzer{
	Name: "maporder",
	Run: func(pass *analysis.Pass) error {
		if !KernelPackage(pass.Pkg.Path()) {
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pass.TypesInfo.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRange(pass, rs)
				return true
			})
		}
		return nil
	},
}

func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt) {
	info := pass.TypesInfo
	keyObj := rangeVarObj(info, rs.Key)

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal defined in the body runs later (if at all); the
			// statement that captures or registers it is what's checked.
			return false
		case *ast.CallExpr:
			if reason := callVerdict(info, n); reason != "" {
				pass.Reportf(n.Pos(), "maporder: %s inside range over map — iteration order is randomized; iterate a sorted/stable order or justify with //lint:allow maporder <reason>", reason)
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "maporder: channel send inside range over map — iteration order is randomized")
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "maporder: goroutine spawn inside range over map — iteration order is randomized")
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "maporder: defer inside range over map runs in iteration order")
		case *ast.IncDecStmt:
			checkOuterWrite(pass, rs, keyObj, n.X, token.Pos(0), true)
		case *ast.AssignStmt:
			commutative := n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN ||
				n.Tok == token.OR_ASSIGN || n.Tok == token.AND_ASSIGN || n.Tok == token.XOR_ASSIGN
			for _, lhs := range n.Lhs {
				checkOuterWrite(pass, rs, keyObj, lhs, n.TokPos, commutative)
			}
		}
		return true
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		return walk(n)
	})
}

// callVerdict classifies a call inside the loop body; it returns a
// non-empty description when the call makes the loop order-sensitive.
func callVerdict(info *types.Info, call *ast.CallExpr) string {
	// Type conversions are pure.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return ""
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap", "min", "max", "new", "delete", "append":
				// append's order effect is judged at the assignment that
				// receives it; delete is commutative set subtraction.
				return ""
			}
			return "builtin " + b.Name()
		}
	}
	return "call to " + exprString(call.Fun)
}

// checkOuterWrite reports writes to state declared outside the range
// statement, with the commutative-accumulation and keyed-index
// exemptions described on MapOrder.
func checkOuterWrite(pass *analysis.Pass, rs *ast.RangeStmt, keyObj types.Object, lhs ast.Expr, _ token.Pos, commutativeTok bool) {
	info := pass.TypesInfo
	lhs = unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	root := rootIdent(lhs)
	if root == nil {
		pass.Reportf(lhs.Pos(), "maporder: write through a computed expression inside range over map — iteration order is randomized")
		return
	}
	obj := info.Uses[root.Ident]
	if obj == nil {
		obj = info.Defs[root.Ident]
	}
	if obj == nil || declaredWithin(obj, rs) {
		return // loop-local state: per-iteration, order-free
	}
	// Commutative integer accumulation on the outer variable.
	if commutativeTok {
		if t := info.TypeOf(lhs); t != nil {
			if basic, ok := t.Underlying().(*types.Basic); ok && basic.Info()&types.IsInteger != 0 {
				return
			}
		}
		pass.Reportf(lhs.Pos(), "maporder: non-integer accumulation into %q inside range over map is order-dependent (float rounding / non-commutative op)", root.Ident.Name)
		return
	}
	// Plain `=` into an outer map/slice cell selected by the iteration
	// key: distinct keys, commutative writes.
	if ix, ok := lhs.(*ast.IndexExpr); ok && keyObj != nil && mentionsObj(info, ix.Index, keyObj) {
		return
	}
	pass.Reportf(lhs.Pos(), "maporder: write to %q (declared outside the loop) inside range over map — iteration order is randomized", root.Ident.Name)
}

// rangeVarObj resolves the object of a range key/value variable.
func rangeVarObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

type rootRef struct{ Ident *ast.Ident }

// rootIdent finds the base identifier of an assignable expression
// (x, x.f, x[i], *x, combinations thereof).
func rootIdent(e ast.Expr) *rootRef {
	for {
		switch v := unparen(e).(type) {
		case *ast.Ident:
			return &rootRef{Ident: v}
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

func declaredWithin(obj types.Object, n ast.Node) bool {
	return obj.Pos() != token.NoPos && n.Pos() <= obj.Pos() && obj.Pos() < n.End()
}

func mentionsObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func exprString(e ast.Expr) string {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return exprString(v.X) + "[...]"
	case *ast.CallExpr:
		return exprString(v.Fun) + "(...)"
	default:
		return "expression"
	}
}
