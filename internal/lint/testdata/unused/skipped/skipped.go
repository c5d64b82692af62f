// Package skipped counts as a caller but is not itself checked.
package skipped

import "fixture/shapes"

func notReported() { shapes.OnlySkipped() }
