package flow

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
)

// TestReentrantDoneGetsIndependentFlow: a done that starts the next
// transfer re-enters Transfer while the engine is still inside complete.
// The finished flow's xfer is already back in the pool, so the new flow
// reuses it; it must get a fresh id and its own schedule, and neither
// done may run twice. A (8 Mbit) and C (32 Mbit) share an 8 Mbps link
// at 4 Mbps each; A leaves at 2 s and its done starts B (8 Mbit), which
// shares with C until it leaves at 4 s; C then has the link alone for
// its last 16 Mbit and leaves at 6 s.
func TestReentrantDoneGetsIndependentFlow(t *testing.T) {
	k := sim.New(1)
	m := NewWithConfig(k, Config{})
	l := netem.NewPipe(k, "l", netem.PipeConfig{Bandwidth: 8 * netem.Mbps})
	var exits []sim.Time
	var ids []uint64
	record := func(e sim.Time, ok bool) {
		if !ok {
			t.Error("transfer dropped unexpectedly")
		}
		exits = append(exits, e)
	}
	m.Transfer(0, 1_000_000, []*netem.Pipe{l}, k.Rand(), func(e sim.Time, ok bool) {
		record(e, ok)
		m.Transfer(k.Now(), 1_000_000, []*netem.Pipe{l}, k.Rand(), record)
		for _, f := range m.links[l].flows {
			ids = append(ids, f.id)
		}
	})
	exitC := start(t, m, k, 4_000_000, l)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	sec := func(s int) sim.Time { return sim.Time(0).Add(time.Duration(s) * time.Second) }
	if len(exits) != 2 || exits[0] != sec(2) || exits[1] != sec(4) {
		t.Errorf("A, B exits = %v, want [2s 4s]", exits)
	}
	if *exitC != sec(6) {
		t.Errorf("C exit = %v, want 6s", *exitC)
	}
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Errorf("flows on the link after A's done = %v, want C (2) then B (3)", ids)
	}
	if st := m.Stats(); st.Started != 3 || st.Completed != 3 || len(m.free) != 2 {
		t.Errorf("stats %+v with %d pooled xfers, want 3 started and completed on 2 xfers", st, len(m.free))
	}
}

// TestEarlyReturnsRecycleXfer: a transfer that never becomes a flow —
// dropped by loss, or crossing no constrained pipe — gives its xfer
// back before calling done, so one xfer serves them all, and a done
// that re-enters Transfer from a drop gets that same xfer for a flow
// that completes.
func TestEarlyReturnsRecycleXfer(t *testing.T) {
	k := sim.New(1)
	m := NewWithConfig(k, Config{})
	lossy := netem.NewPipe(k, "lossy", netem.PipeConfig{Bandwidth: netem.Mbps, Loss: 1})
	free := netem.NewPipe(k, "free", netem.PipeConfig{Delay: time.Millisecond})
	good := netem.NewPipe(k, "good", netem.PipeConfig{Bandwidth: netem.Mbps})
	const n = 5
	var drops, passes int
	for i := 0; i < n; i++ {
		for _, p := range []*netem.Pipe{lossy, free} {
			m.Transfer(0, 2000, []*netem.Pipe{p}, k.Rand(), func(e sim.Time, ok bool) {
				if ok {
					passes++
					if want := sim.Time(time.Millisecond); e != want {
						t.Errorf("unconstrained exit = %v, want %v", e, want)
					}
				} else {
					drops++
				}
			})
			if len(m.free) != 1 {
				t.Fatalf("%d xfers pooled after a transfer over %s, want 1", len(m.free), p.Name())
			}
		}
	}
	if st := m.Stats(); st.Started != 0 || drops != n || passes != n {
		t.Fatalf("stats %+v, %d drops and %d passes; want %d drops, 0 started", st, drops, passes, n)
	}
	var exit sim.Time
	m.Transfer(0, 2000, []*netem.Pipe{lossy}, k.Rand(), func(_ sim.Time, ok bool) {
		m.Transfer(0, 2000, []*netem.Pipe{good}, k.Rand(), func(e sim.Time, _ bool) { exit = e })
	})
	if len(m.free) != 0 {
		t.Fatalf("%d xfers pooled while the re-entered flow runs, want its reused 0", len(m.free))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(0).Add(durBits(16000, mbps)); exit != want {
		t.Errorf("re-entered flow exit = %v, want %v", exit, want)
	}
}

// TestRecycledXferIgnoresStaleCompletion: a pooled xfer still holds the
// handle of its previous completion event, whose struct the kernel has
// recycled. Here that struct goes straight to an unrelated timer, and
// the xfer to a new flow; rating the new flow must arm a completion of
// its own, not move the timer that now occupies the old event struct.
func TestRecycledXferIgnoresStaleCompletion(t *testing.T) {
	k := sim.New(1)
	m := NewWithConfig(k, Config{})
	l := netem.NewPipe(k, "l", netem.PipeConfig{Bandwidth: 8 * netem.Mbps})
	timerAt := sim.Time(0).Add(time.Hour)
	var fired []sim.Time
	var exitA, exitB []sim.Time
	m.Transfer(0, 1_000_000, []*netem.Pipe{l}, k.Rand(), func(e sim.Time, _ bool) {
		exitA = append(exitA, e)
		// The completion's event struct is at the head of the kernel's
		// free list: the timer takes it, the new flow takes A's xfer.
		k.At(timerAt, func() { fired = append(fired, k.Now()) })
		m.Transfer(k.Now(), 1_000_000, []*netem.Pipe{l}, k.Rand(), func(e sim.Time, _ bool) {
			exitB = append(exitB, e)
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	sec := func(s int) sim.Time { return sim.Time(0).Add(time.Duration(s) * time.Second) }
	if len(exitA) != 1 || exitA[0] != sec(1) || len(exitB) != 1 || exitB[0] != sec(2) {
		t.Errorf("exits A %v, B %v, want [1s] and [2s]", exitA, exitB)
	}
	if len(fired) != 1 || fired[0] != timerAt {
		t.Errorf("unrelated timer fired at %v, want once at %v", fired, timerAt)
	}
}
