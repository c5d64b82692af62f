package vnet

import (
	"errors"
	"runtime"
	"slices"
	"testing"

	"repro/internal/ip"
	"repro/internal/sim"
)

// TestListenerServe: Serve runs each accepted connection in a task of
// its own, named as asked and spawned in accept order, and keeps
// accepting until the listener closes.
func TestListenerServe(t *testing.T) {
	base := runtime.NumGoroutine()
	e := newEnv()
	a, b := e.twoHosts(t)
	var dialed, served []ip.Port
	procs := map[*sim.Proc]bool{}
	e.k.Go("server", func(p *sim.Proc) {
		l, err := b.Listen(p, 80)
		if err != nil {
			t.Error(err)
			return
		}
		l.Serve(p, "conn", func(p *sim.Proc, c *Conn) {
			procs[p] = true
			served = append(served, c.RemoteAddr().Port)
			c.Recv(p) // parks for good: nothing is ever sent
		})
		t.Error("Serve returned on an open listener")
	})
	e.k.Go("client", func(p *sim.Proc) {
		p.Yield()
		for range 3 {
			c, err := a.Dial(p, ip.Endpoint{Addr: b.Addr(), Port: 80})
			if err != nil {
				t.Error(err)
				return
			}
			dialed = append(dialed, c.local().Port)
		}
	})
	// The run ends parked: Serve in Accept and each connection's task
	// in Recv, under the names they were given.
	var dl *sim.DeadlockError
	if err := e.k.Run(); !errors.As(err, &dl) {
		t.Fatalf("run: %v, want a deadlock", err)
	}
	if want := []string{"conn", "conn", "conn", "server"}; !slices.Equal(dl.Blocked, want) {
		t.Errorf("parked tasks %v, want %v", dl.Blocked, want)
	}
	if len(dialed) != 3 || !slices.Equal(served, dialed) {
		t.Errorf("served %v, want the dial order %v", served, dialed)
	}
	if len(procs) != 3 {
		t.Errorf("%d distinct tasks ran the handler, want 3", len(procs))
	}
	goroutinesSettleAt(t, base, "after the run")
}

// TestListenerServeCloses: a handler that closes the listener ends its
// Serve, and a connection queued behind the one it serves is reset,
// not handed to a task.
func TestListenerServeCloses(t *testing.T) {
	base := runtime.NumGoroutine()
	e := newEnv()
	a, b := e.twoHosts(t)
	handled, returned := 0, false
	var refused []error
	e.k.Go("server", func(p *sim.Proc) {
		l, err := b.Listen(p, 80)
		if err != nil {
			t.Error(err)
			return
		}
		l.Serve(p, "conn", func(p *sim.Proc, c *Conn) {
			handled++
			l.Close()
		})
		returned = true
	})
	// Two dials at the same instant: both land in the backlog together,
	// so the second is still queued when the first one's task runs.
	for range 2 {
		e.k.Go("client", func(p *sim.Proc) {
			p.Yield()
			c, err := a.Dial(p, ip.Endpoint{Addr: b.Addr(), Port: 80})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := c.Recv(p); errors.Is(err, ErrClosed) {
				refused = append(refused, err)
			}
		})
	}
	if err := e.k.Run(); err != nil {
		var dl *sim.DeadlockError
		if !errors.As(err, &dl) || !slices.Equal(dl.Blocked, []string{"client"}) {
			t.Fatalf("run: %v, want only the served client parked", err)
		}
	}
	if !returned {
		t.Error("Serve did not return after Close")
	}
	if handled != 1 || len(refused) != 1 {
		t.Errorf("%d connections handled and %d reset, want 1 and 1", handled, len(refused))
	}
	// The served connection's two ends are all that is left.
	if n := e.n; n.connsEstablished != 2 || n.connsHalfOpen != 0 {
		t.Errorf("conn gauges read %d established, %d half-open, want 2 and 0", n.connsEstablished, n.connsHalfOpen)
	}
	goroutinesSettleAt(t, base, "after the run")
}

// goroutinesSettleAt waits for the goroutine count to come back to at
// most base: the kernel ends its coroutines when its run does.
func goroutinesSettleAt(t *testing.T, base int, when string) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 1000 {
			t.Fatalf("%s: %d goroutines, %d before", when, runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}
