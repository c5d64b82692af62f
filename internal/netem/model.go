package netem

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
)

// LinkModel turns one message traversal over an ordered path of pipes
// into a delivery schedule. It is the seam between the transport layer
// (vnet builds the path: sender up-link, fabric pipes, receiver
// down-link) and the emulation model that decides *when* the bytes
// arrive.
//
// Two implementations exist:
//
//   - PipeModel (here): the Dummynet-style store-and-forward model —
//     every pipe is charged independently at the message's arrival
//     instant, O(1) per hop, no interaction between concurrent
//     transfers beyond FIFO queueing on each pipe's cursor.
//   - flow.Model (repro/internal/flow): the flow-level max-min fair
//     model — each in-flight transfer is a fluid flow over the
//     bandwidth-constrained pipes of its path, and concurrent flows
//     sharing a pipe split its capacity by progressive filling.
//
// DESIGN.md decision 5 records the trade-off.
type LinkModel interface {
	// Transfer charges a size-byte message entering the path at instant
	// at. done is called exactly once — possibly synchronously — with
	// the instant the message exits the last pipe (serialization,
	// queueing and per-pipe propagation included) and ok=true, or with
	// ok=false when the message is dropped by loss or queue admission.
	//
	// The contract vnet's pooled caller relies on: Transfer is called,
	// and done must be called, with the kernel's execution token held
	// (a simulated goroutine or an event callback). path belongs to the
	// caller: it stays valid and unmodified until done is called, and
	// the model must not retain it afterwards — the caller reuses the
	// backing array for its next message. done may re-enter Transfer
	// (a give-up resets the sender's connection, and the application's
	// close handler may send), so the model must be consistent before
	// it calls done and touch nothing of this transfer after.
	Transfer(at sim.Time, size int, path []*Pipe, rng *rand.Rand, done func(exit sim.Time, ok bool))
}

// ReconfigurableModel is implemented by link models that keep per-pipe
// state of their own and must react when a pipe's configuration changes
// mid-run: the flow model re-solves the connected component of the
// links↔flows graph containing the pipe and re-rates the flows whose
// fair share changed. The pipe model needs no notification — its only
// per-pipe state is the cursor, which Pipe.Reconfigure re-rates itself.
type ReconfigurableModel interface {
	PipeReconfigured(p *Pipe)
}

// FlushableModel is implemented by link models that batch their
// internal re-rating work (the flow model's epsilon-batched solver):
// FlushBatch drains any coalesced churn immediately, at the current
// virtual instant. Synchronization points — a pipe about to be
// reconfigured, a caller about to read rates — call it so they observe
// settled allocations rather than a half-drained window. It must be a
// no-op when nothing is pending.
type FlushableModel interface {
	FlushBatch()
}

// ModelKind selects a LinkModel implementation by name; the zero value
// is the pipe model, so existing configurations are unchanged.
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

// PipeModel is the default LinkModel: the path's pipes are charged hop
// by hop, each at the message's true arrival instant (via an event),
// never earlier. This matters for pipes shared across flows (the
// physical node's NIC in the folded deployments): charging the whole
// path eagerly at send time would update shared cursors in *send*
// order rather than *arrival* order, and the ~seconds of queueing
// jitter on access links ahead of them would turn into spurious
// queueing delay for later-arriving messages.
type PipeModel struct {
	k *sim.Kernel
}

// NewPipeModel returns the store-and-forward model on kernel k.
func NewPipeModel(k *sim.Kernel) *PipeModel { return &PipeModel{k: k} }

// Transfer implements LinkModel. The first hop is charged inline at
// `at` (a sender's own up-link sees its messages in send order by
// construction); every later hop is charged from an event at its
// arrival instant.
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
