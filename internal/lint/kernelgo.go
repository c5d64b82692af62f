package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// KernelGo forbids native Go concurrency in kernel-driven packages:
// `go` statements, `select`, channel types and operations, and the
// sync package. Inside the emulator exactly one simulated goroutine
// runs at a time on one serialized timeline; concurrency must go
// through the kernel's own primitives (sim.Kernel.Go, sim.Chan,
// sim.Cond), which park on virtual time and keep the schedule
// deterministic. Native primitives would race the wall clock against
// the virtual one.
//
// There is no exception: no kernel-driven package carries a
// //lint:allow kernelgo, and TestNoKernelGoException fails if one
// appears. The sim kernel itself switches between Run and its tasks
// with iter.Pull and holds no go statement, channel or lock.
var KernelGo = &analysis.Analyzer{
	Name: "kernelgo",
	Run: func(pass *analysis.Pass) error {
		if !KernelPackage(pass.Pkg.Path()) {
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					pass.Reportf(n.Pos(), "kernelgo: native `go` statement in kernel-context code; spawn simulated goroutines with sim.Kernel.Go")
				case *ast.SelectStmt:
					pass.Reportf(n.Pos(), "kernelgo: `select` in kernel-context code; block on sim.Chan/sim.Cond instead")
				case *ast.SendStmt:
					pass.Reportf(n.Pos(), "kernelgo: native channel send in kernel-context code; use sim.Chan")
				case *ast.UnaryExpr:
					if n.Op.String() == "<-" {
						pass.Reportf(n.Pos(), "kernelgo: native channel receive in kernel-context code; use sim.Chan")
					}
				case *ast.ChanType:
					pass.Reportf(n.Pos(), "kernelgo: native channel type in kernel-context code; use sim.Chan")
				case *ast.RangeStmt:
					if t := pass.TypesInfo.TypeOf(n.X); t != nil {
						if _, isChan := t.Underlying().(*types.Chan); isChan {
							pass.Reportf(n.Pos(), "kernelgo: range over native channel in kernel-context code; use sim.Chan")
						}
					}
				case *ast.CallExpr:
					if id, ok := unparen(n.Fun).(*ast.Ident); ok {
						if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "close" && len(n.Args) == 1 {
							if t := pass.TypesInfo.TypeOf(n.Args[0]); t != nil {
								if _, isChan := t.Underlying().(*types.Chan); isChan {
									pass.Reportf(n.Pos(), "kernelgo: close of native channel in kernel-context code; use sim.Chan.Close")
								}
							}
						}
					}
				case *ast.Ident:
					obj := pass.TypesInfo.Uses[n]
					if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
						pass.Reportf(n.Pos(), "kernelgo: sync.%s in kernel-context code; the kernel serializes execution — use sim.Cond or sim.Chan", obj.Name())
					}
				}
				return true
			})
		}
		return nil
	},
}
