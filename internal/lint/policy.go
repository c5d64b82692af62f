// Package lint is the project's static-analysis suite. Five analyzers
// enforce at test time the invariants the emulator otherwise only
// proves after the fact with golden-trace digests and -race runs
// (DESIGN decisions 11 and 13):
//
//   - walltime: no wall-clock reads in kernel-driven packages
//   - detrand:  no global math/rand state; RNGs are seeded and threaded
//   - maporder: no order-sensitive iteration over Go maps
//   - kernelgo: no native concurrency in kernel-context code
//   - tokenheld: the execution-token contract is respected
//
// The analyzers are framework-agnostic checks over a typechecked
// package (see internal/lint/analysis); TestModuleVetsClean runs them
// over every package of the module through Check.
package lint

import (
	"strings"

	"repro/internal/lint/analysis"
)

// ModulePath is the import-path root of this repository. The analyzers
// only ever fire inside it; everything else (standard library,
// hypothetical vendored code) is skipped wholesale.
const ModulePath = "repro"

// simPath is the package that owns the execution-token primitives. A
// parameter or receiver of type *sim.Proc is an implicit //p2p:token
// annotation (a Proc handle only exists inside a simulated goroutine).
const simPath = "repro/internal/sim"

// kernelDriven lists the packages whose code runs on (or feeds) the
// virtual timeline: one stray wall-clock read, global-RNG draw or
// map-order dependence here silently breaks run-over-run determinism.
// The walltime, detrand, maporder and kernelgo analyzers fire only in
// these packages; tokenheld is module-wide (the token contract also
// binds the host-side callers in exp and serve).
var kernelDriven = map[string]bool{
	"sim":      true,
	"vnet":     true,
	"netem":    true,
	"flow":     true,
	"bt":       true,
	"chord":    true,
	"gossip":   true,
	"churn":    true,
	"sched":    true,
	"scenario": true,
	"obs":      true,
	"topo":     true,
	"trace":    true,
	"ip":       true,
	"virt":     true,
}

// KernelPackage reports whether importPath is one of the kernel-driven
// packages.
func KernelPackage(importPath string) bool {
	rest, ok := strings.CutPrefix(importPath, ModulePath+"/internal/")
	if !ok {
		return false
	}
	return kernelDriven[rest]
}

// Analyzers returns the full suite in reporting order.
//
//lint:allow unused the suite runs in the lint package's tests: TestModuleVetsClean runs it over the module
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		WallTime,
		DetRand,
		MapOrder,
		KernelGo,
		TokenHeld,
	}
}
