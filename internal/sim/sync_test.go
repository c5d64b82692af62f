package sim

import (
	"errors"
	"testing"
	"time"
)

func TestCondSignalWakesFIFO(t *testing.T) {
	k := New(1)
	c := NewCond(k)
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
	c := NewCond(k)
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
	c := NewCond(k)
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
	c := NewCond(k)
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
	c := NewCond(k)
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

func TestChanCapacityBlocksSender(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, 2)
	var sentAt []Time
	k.Go("send", func(p *Proc) {
		for i := 0; i < 3; i++ {
			if err := ch.Send(p, i); err != nil {
				t.Errorf("Send: %v", err)
			}
			sentAt = append(sentAt, p.Now())
		}
	})
	k.Go("recv", func(p *Proc) {
		p.Sleep(5 * time.Second)
		if _, err := ch.Recv(p); err != nil {
			t.Errorf("Recv: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sentAt[0] != 0 || sentAt[1] != 0 {
		t.Fatalf("first two sends should not block: %v", sentAt)
	}
	if sentAt[2] != Time(5*time.Second) {
		t.Fatalf("third send completed at %v, want 5s", sentAt[2])
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
