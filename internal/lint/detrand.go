package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// randConstructors are the math/rand package-level functions that build
// an explicitly seeded source — the blessed pattern
// (rand.New(rand.NewSource(cfg.Seed))). Everything else at package
// level draws from (or reseeds) the process-global source, whose
// sequence is shared across every kernel in a sweep and, since Go 1.20,
// wall-seeded by default: nondeterminism by construction.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	// math/rand/v2 constructors.
	"NewPCG":     true,
	"NewChaCha8": true,
}

// DetRand forbids the global math/rand state in kernel-driven packages:
// an RNG is a seeded *rand.Rand threaded from config.
var DetRand = &analysis.Analyzer{
	Name: "detrand",
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
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				if p := obj.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
					return true
				}
				fn, ok := obj.(*types.Func)
				if !ok {
					return true
				}
				// Methods on *rand.Rand (an explicitly threaded source) are
				// fine; only package-level draws touch the global source.
				if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true
				}
				if randConstructors[fn.Name()] {
					return true
				}
				pass.Reportf(id.Pos(),
					"detrand: rand.%s uses the process-global random source; thread a seeded *rand.Rand from config (rand.New(rand.NewSource(seed)))",
					fn.Name())
				return true
			})
		}
		return nil
	},
}
