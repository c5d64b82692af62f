package netem

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
)

// ModelKind selects the link-emulation model by name: how one message
// traversal over an ordered path of pipes becomes a delivery instant.
// The zero value is the Dummynet-style pipe model — every pipe charged
// independently at the message's arrival instant, O(1) per hop, no
// interaction between concurrent transfers beyond FIFO queueing on each
// pipe's cursor. ModelFlow is the max-min fair model of
// repro/internal/flow, where concurrent flows sharing a pipe split its
// capacity. DESIGN.md decision 5 records the trade-off.
type ModelKind int

const (
	// ModelPipe is the default Dummynet-style per-pipe model.
	ModelPipe ModelKind = iota
	// ModelFlow is the flow-level max-min fair bandwidth-sharing model.
	ModelFlow
)

// String names the model kind for flags and sweep labels.
func (m ModelKind) String() string {
	switch m {
	case ModelPipe:
		return "pipe"
	case ModelFlow:
		return "flow"
	default:
		return fmt.Sprintf("ModelKind(%d)", int(m))
	}
}

// ParseModel parses a model name as used by command-line flags.
func ParseModel(s string) (ModelKind, error) {
	switch s {
	case "pipe":
		return ModelPipe, nil
	case "flow":
		return ModelFlow, nil
	default:
		return 0, fmt.Errorf("netem: unknown link model %q (want pipe or flow)", s)
	}
}

// PipeModel is the reference walk of the pipe model: the path's pipes
// are charged hop by hop, each at the message's true arrival instant
// (via an event), never earlier. This matters for pipes shared across
// flows (the physical node's NIC in the folded deployments): charging
// the whole path eagerly at send time would update shared cursors in
// *send* order rather than *arrival* order, and the ~seconds of
// queueing jitter on access links ahead of them would turn into
// spurious queueing delay for later-arriving messages.
//
// vnet runs a pooled twin of this walk inline (its xfer.step); tests
// compare both that walk and the flow engine against this one.
type PipeModel struct {
	k *sim.Kernel
}

// NewPipeModel returns the store-and-forward model on kernel k.
//
//lint:allow unused the vnet and flow tests' shared oracle for both link models
func NewPipeModel(k *sim.Kernel) *PipeModel { return &PipeModel{k: k} }

// Transfer charges a size-byte message entering path at instant at and
// calls done once, with the exit instant of the last pipe and ok=true,
// or with ok=false when a pipe drops it. The first hop is charged inline
// at `at` (a sender's own up-link sees its messages in send order by
// construction); every later hop is charged from an event at its
// arrival instant.
//
//lint:allow unused the vnet and flow tests' shared oracle for both link models
func (pm *PipeModel) Transfer(at sim.Time, size int, path []*Pipe, rng *rand.Rand, done func(sim.Time, bool)) {
	var hop func(i int, t sim.Time)
	hop = func(i int, t sim.Time) {
		if i == len(path) {
			done(t, true)
			return
		}
		exit, ok := path[i].ScheduleAt(t, size, rng)
		if !ok {
			done(0, false)
			return
		}
		if exit == t {
			hop(i+1, exit) // unconstrained pipe: continue inline
			return
		}
		pm.k.At(exit, func() { hop(i+1, exit) })
	}
	hop(0, at)
}
