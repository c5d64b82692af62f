package sim

import (
	"errors"
	"slices"
	"testing"
	"time"
)

func TestCondSignalWakesFIFO(t *testing.T) {
	k := New(1)
	c := new(Cond)
	var order []string
	spawn := func(name string) {
		k.Go(name, func(p *Proc) {
			c.Wait(p)
			order = append(order, name)
		})
	}
	spawn("first")
	spawn("second")
	k.Go("signaller", func(p *Proc) {
		p.Sleep(time.Second)
		c.Signal()
		p.Sleep(time.Second)
		c.Signal()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("wake order = %v, want [first second]", order)
	}
}

func TestCondBroadcast(t *testing.T) {
	k := New(1)
	c := new(Cond)
	woken := 0
	for i := 0; i < 5; i++ {
		k.Go("w", func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	k.Go("b", func(p *Proc) {
		p.Sleep(time.Second)
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	k := New(1)
	c := new(Cond)
	var signalled bool
	var woke Time
	k.Go("w", func(p *Proc) {
		signalled = c.WaitTimeout(p, 2*time.Second)
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if signalled {
		t.Fatal("WaitTimeout reported signal, want timeout")
	}
	if woke != Time(2*time.Second) {
		t.Fatalf("woke at %v, want 2s", woke)
	}
}

func TestCondSignalBeatsTimeout(t *testing.T) {
	k := New(1)
	c := new(Cond)
	var signalled bool
	k.Go("w", func(p *Proc) {
		signalled = c.WaitTimeout(p, 10*time.Second)
	})
	k.Go("s", func(p *Proc) {
		p.Sleep(time.Second)
		c.Signal()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !signalled {
		t.Fatal("want signal to win over timeout")
	}
	if k.Now() >= Time(10*time.Second) {
		t.Fatalf("clock ran to %v; timeout event should be cancelled", k.Now())
	}
}

func TestCondLen(t *testing.T) {
	k := New(1)
	c := new(Cond)
	for i := 0; i < 3; i++ {
		k.Go("w", func(p *Proc) { c.Wait(p) })
	}
	k.Go("check", func(p *Proc) {
		p.Sleep(time.Second)
		if got := c.Len(); got != 3 {
			t.Errorf("Len = %d, want 3", got)
		}
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChanSendRecv(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, 0)
	var got []int
	k.Go("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v, err := ch.Recv(p)
			if err != nil {
				t.Errorf("Recv: %v", err)
			}
			got = append(got, v)
		}
	})
	k.Go("send", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(time.Second)
			if err := ch.Send(p, i); err != nil {
				t.Errorf("Send: %v", err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

// TestChanSendRefusesWhenFull: Send never parks. On a full bounded
// channel it returns ErrFull at once, and the item is not queued; on a
// closed channel it returns ErrClosed.
func TestChanSendRefusesWhenFull(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, 2)
	var errs []error
	var sentAt []Time
	k.Go("send", func(p *Proc) {
		for i := 0; i < 3; i++ {
			errs = append(errs, ch.Send(p, i))
			sentAt = append(sentAt, p.Now())
		}
		ch.Close()
		errs = append(errs, ch.Send(p, 3))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []error{nil, nil, ErrFull, ErrClosed}
	for i := range want {
		if !errors.Is(errs[i], want[i]) {
			t.Fatalf("send %d: %v, want %v", i, errs[i], want[i])
		}
	}
	if !slices.Equal(sentAt, []Time{0, 0, 0}) {
		t.Fatalf("sends returned at %v, want all at 0", sentAt)
	}
	for i := 0; i < 2; i++ {
		if v, ok := ch.TryRecv(); !ok || v != i {
			t.Fatalf("TryRecv = %d, %v; want %d, true", v, ok, i)
		}
	}
	if _, ok := ch.TryRecv(); ok {
		t.Fatal("the refused item was queued")
	}
}

func TestChanTrySend(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, 1)
	if !ch.TrySend(1) {
		t.Fatal("TrySend on empty bounded chan should succeed")
	}
	if ch.TrySend(2) {
		t.Fatal("TrySend on full chan should fail")
	}
	ch.Close()
	if ch.TrySend(3) {
		t.Fatal("TrySend on closed chan should fail")
	}
}

func TestChanCloseDrains(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, 0)
	ch.TrySend(7)
	ch.Close()
	var v int
	var errAfter error
	k.Go("r", func(p *Proc) {
		v, _ = ch.Recv(p)
		_, errAfter = ch.Recv(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Fatalf("drained value = %d, want 7", v)
	}
	if !errors.Is(errAfter, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", errAfter)
	}
}

func TestChanCloseWakesBlockedReceiver(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, 0)
	var err error
	k.Go("r", func(p *Proc) { _, err = ch.Recv(p) })
	k.Go("c", func(p *Proc) {
		p.Sleep(time.Second)
		ch.Close()
	})
	if e := k.Run(); e != nil {
		t.Fatal(e)
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv err = %v, want ErrClosed", err)
	}
}

func TestChanRecvTimeout(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, 0)
	var ok bool
	var at Time
	k.Go("r", func(p *Proc) {
		_, ok, _ = ch.RecvTimeout(p, 3*time.Second)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("RecvTimeout should have timed out")
	}
	if at != Time(3*time.Second) {
		t.Fatalf("timed out at %v, want 3s", at)
	}
}

func TestChanRecvTimeoutDelivery(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, 0)
	var got int
	var ok bool
	k.Go("r", func(p *Proc) { got, ok, _ = ch.RecvTimeout(p, 10*time.Second) })
	k.Go("s", func(p *Proc) {
		p.Sleep(time.Second)
		ch.Send(p, 42)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok || got != 42 {
		t.Fatalf("got (%d,%v), want (42,true)", got, ok)
	}
}

// TestChanReset pins what Reset hands on and what it refuses. A
// channel buffering an item is refused, closed or not; a drained one is
// reopened, and Idle then holds. A receiver counts from the moment it
// waits until it runs again: parked, timed, or woken by Close and still
// queued behind the task that closed the channel, it keeps Reset off,
// and once it has returned ErrClosed the channel resets.
func TestChanReset(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, 0)
	want := func(step string, idle, reset bool) {
		t.Helper()
		if ch.Idle() != idle {
			t.Errorf("%s: Idle %v, want %v", step, !idle, idle)
		}
		if ch.Reset() != reset {
			t.Errorf("%s: Reset %v, want %v", step, !reset, reset)
		}
	}
	want("fresh", true, true)
	ch.TrySend(1)
	want("one buffered", false, false)
	ch.Close()
	want("closed, one buffered", false, false)
	ch.TryRecv()
	want("closed, drained", false, true)
	want("reset", true, true)
	if !ch.TrySend(2) {
		t.Fatal("the reset channel refused a send")
	}
	ch.TryRecv()

	var errs []error
	k.Go("receiver", func(p *Proc) {
		_, err := ch.Recv(p)
		errs = append(errs, err)
	})
	k.Go("timed", func(p *Proc) {
		_, ok, err := ch.RecvTimeout(p, time.Second)
		if ok || err != nil {
			t.Errorf("RecvTimeout = %v, %v; want a timeout", ok, err)
		}
	})
	k.Go("closer", func(p *Proc) {
		p.Yield() // both receivers park
		want("two receivers parked", false, false)
		p.Sleep(2 * time.Second)
		want("the timed receiver returned", false, false)
		ch.Close()
		want("the receiver woken, not yet run", false, false)
		p.Yield()
		if len(errs) != 1 || !errors.Is(errs[0], ErrClosed) {
			t.Errorf("the woken receiver returned %v, want ErrClosed", errs)
		}
		want("the receiver returned", false, true)
		want("reset again", true, true)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCondIdle: Idle holds while no task is parked on the Cond.
func TestCondIdle(t *testing.T) {
	k := New(1)
	var c Cond
	k.Go("waiter", func(p *Proc) { c.Wait(p) })
	k.Go("signaller", func(p *Proc) {
		p.Yield()
		if c.Idle() {
			t.Error("Idle with a task parked")
		}
		c.Signal()
		if !c.Idle() {
			t.Error("not Idle once the waiter is signalled")
		}
	})
	if !c.Idle() {
		t.Error("a zero Cond is not Idle")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
