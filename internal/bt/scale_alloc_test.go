//go:build !race

package bt

import "testing"

// TestSwarmHotPathsDoNotAllocate holds the two bodies of
// BenchmarkSwarmScaleHot to zero allocations per call. (The race
// detector's instrumentation allocates, hence the build tag.)
func TestSwarmHotPathsDoNotAllocate(t *testing.T) {
	for _, path := range hotPaths {
		if n := testing.AllocsPerRun(1000, path.setUp(t)); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", path.name, n)
		}
	}
}
