package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each fixture package impersonates a kernel-driven import path (the
// analyzers key on the path, and testdata trees can claim any path
// they like) and pins the analyzer's behavior with // want comments.

func TestWallTime(t *testing.T) {
	linttest.Run(t, "testdata/src", "repro/internal/sched", lint.WallTime)
}

func TestDetRand(t *testing.T) {
	linttest.Run(t, "testdata/src", "repro/internal/churn", lint.DetRand)
}

func TestMapOrder(t *testing.T) {
	linttest.Run(t, "testdata/src", "repro/internal/gossip", lint.MapOrder)
}

func TestKernelGo(t *testing.T) {
	linttest.Run(t, "testdata/src", "repro/internal/netem", lint.KernelGo)
}

// TestTokenHeld loads a fake sim package and a vnet caller: the
// //p2p: annotations must cross the package boundary as facts.
func TestTokenHeld(t *testing.T) {
	linttest.Run(t, "testdata/src", "repro/internal/vnet", lint.TokenHeld)
}

// TestNonKernelPackagesAreExempt runs the whole suite over a host-side
// fixture full of wall clocks, global rand, sync and channels: the
// kernel-scoped analyzers must stay silent outside kernel-driven
// import paths (and tokenheld, which is module-wide, has nothing to
// say about code that never touches the token surface).
func TestNonKernelPackagesAreExempt(t *testing.T) {
	for _, a := range lint.Analyzers() {
		linttest.Run(t, "testdata/src", "repro/internal/hostexp", a)
	}
}
