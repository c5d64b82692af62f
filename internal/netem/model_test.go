package netem

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// transferResult records one PipeModel.Transfer completion.
type transferResult struct {
	calls int
	exit  sim.Time
	ok    bool
}

func (r *transferResult) done(exit sim.Time, ok bool) {
	r.calls++
	r.exit, r.ok = exit, ok
}

// TestPipeModelSharedHopChargedInArrivalOrder is the property
// PipeModel's doc comment states: a pipe shared by two senders is
// charged when each message reaches it, not when it was sent. The
// message sent first sits behind 80 ms of access delay, the one sent
// second behind 5 ms, so the second reaches the shared serializer first
// and must not queue behind the first.
func TestPipeModelSharedHopChargedInArrivalOrder(t *testing.T) {
	k := sim.New(1)
	pm := NewPipeModel(k)
	slow := NewPipe(k, "slow/up", PipeConfig{Delay: 80 * time.Millisecond})
	fast := NewPipe(k, "fast/up", PipeConfig{Delay: 5 * time.Millisecond})
	shared := NewPipe(k, "nic", PipeConfig{Bandwidth: 1 * Mbps}) // 1250 B = 10 ms
	const size = 1250
	var first, second transferResult
	k.At(0, func() {
		pm.Transfer(k.Now(), size, []*Pipe{slow, shared}, k.Rand(), first.done)
	})
	k.At(sim.Time(time.Millisecond), func() {
		pm.Transfer(k.Now(), size, []*Pipe{fast, shared}, k.Rand(), second.done)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Arrival order: second reaches the NIC at 6 ms and leaves at 16 ms;
	// first reaches it at 80 ms, finds it idle, and leaves at 90 ms.
	// Send-order charging would have made second wait until 100 ms.
	if want := sim.Time(16 * time.Millisecond); second.calls != 1 || !second.ok || second.exit != want {
		t.Errorf("second-sent message: %+v, want one call, ok, exit %v", second, want)
	}
	if want := sim.Time(90 * time.Millisecond); first.calls != 1 || !first.ok || first.exit != want {
		t.Errorf("first-sent message: %+v, want one call, ok, exit %v", first, want)
	}
}

// TestPipeModelMidPathDrop: a message lost on a later hop reports
// done(0, false) exactly once, at its arrival at the lossy pipe, and
// leaves nothing scheduled behind it; the pipes past the casualty are
// never charged.
func TestPipeModelMidPathDrop(t *testing.T) {
	k := sim.New(1)
	pm := NewPipeModel(k)
	access := NewPipe(k, "up", PipeConfig{Bandwidth: 1 * Mbps, Delay: 5 * time.Millisecond})
	lossy := NewPipe(k, "wan", PipeConfig{Delay: 20 * time.Millisecond, Loss: 1})
	last := NewPipe(k, "down", PipeConfig{Bandwidth: 1 * Mbps})
	var res transferResult
	var droppedAt sim.Time
	var queued int
	k.At(0, func() {
		pm.Transfer(k.Now(), 1250, []*Pipe{access, lossy, last}, k.Rand(), func(exit sim.Time, ok bool) {
			res.done(exit, ok)
			droppedAt = k.Now()
		})
		queued = k.QueueLen() // the parked hop at the access pipe's exit
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if res.calls != 1 || res.ok || res.exit != 0 {
		t.Fatalf("done: %+v, want exactly one done(0, false)", res)
	}
	if want := sim.Time(15 * time.Millisecond); droppedAt != want {
		t.Errorf("dropped at %v, want %v (arrival at the lossy pipe)", droppedAt, want)
	}
	if queued != 1 {
		t.Errorf("%d event(s) queued after Transfer, want 1", queued)
	}
	if n := k.QueueLen(); n != 0 {
		t.Errorf("%d event(s) left after the drop, want 0", n)
	}
	if got := lossy.Stats().Lost; got != 1 {
		t.Errorf("lossy pipe counted %d loss(es), want 1", got)
	}
	if got := last.Stats().Messages; got != 0 {
		t.Errorf("pipe past the casualty carried %d message(s), want 0", got)
	}
}

// TestPipeModelUnconstrainedPathIsSynchronous: a path of pipes with no
// bandwidth, delay or jitter completes inside Transfer — done runs
// before Transfer returns, at the entry instant, and no event is
// scheduled.
func TestPipeModelUnconstrainedPathIsSynchronous(t *testing.T) {
	k := sim.New(1)
	pm := NewPipeModel(k)
	path := []*Pipe{NewPipe(k, "a", PipeConfig{}), NewPipe(k, "b", PipeConfig{}), NewPipe(k, "c", PipeConfig{})}
	var res transferResult
	at := sim.Time(3 * time.Second)
	pm.Transfer(at, 1500, path, k.Rand(), res.done)
	if res.calls != 1 || !res.ok || res.exit != at {
		t.Fatalf("done before Transfer returned: %+v, want one done(%v, true)", res, at)
	}
	if n := k.QueueLen(); n != 0 {
		t.Errorf("%d event(s) scheduled for an unconstrained path, want 0", n)
	}
	for _, p := range path {
		if got := p.Stats().Messages; got != 1 {
			t.Errorf("pipe %s carried %d message(s), want 1", p.Name(), got)
		}
	}
}
