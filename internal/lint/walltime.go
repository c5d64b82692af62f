package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// wallClockFuncs are the package-time functions that read or act on the
// host's wall clock. Pure value plumbing (time.Duration, ParseDuration,
// Unix construction) is fine; observing "now" or sleeping real time is
// not — inside the emulator the kernel's virtual clock is the only
// clock (sim.Time, Proc.Now, Proc.Sleep).
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// WallTime forbids wall-clock reads in kernel-driven packages, where
// virtual time is the only clock.
var WallTime = &analysis.Analyzer{
	Name: "walltime",
	Run: func(pass *analysis.Pass) error {
		if !KernelPackage(pass.Pkg.Path()) {
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := pass.TypesInfo.Uses[id]
				if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
					return true
				}
				fn, ok := obj.(*types.Func)
				if !ok || !wallClockFuncs[fn.Name()] {
					return true
				}
				pass.Reportf(id.Pos(),
					"walltime: time.%s reads the wall clock; kernel-driven code must use virtual time (sim.Time, Proc.Now, Kernel.Now)",
					fn.Name())
				return true
			})
		}
		return nil
	},
}
