package vnet

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// connRun is one draw of TestConnExactlyOnceInOrderProperty: count
// messages over a reliable connection whose sender's up-link loses
// loss of its packets.
type connRun struct {
	count int
	got   []int
	stats NetworkStats
	err   error
	drops []trace.Event // net.drop records
}

func runConnDraw(countRaw, lossRaw uint8) (connRun, error) {
	r := connRun{count: int(countRaw%40) + 1}
	loss := float64(lossRaw%30) / 100 // 0..0.29
	k := sim.New(int64(countRaw)*31 + int64(lossRaw))
	n := NewNetwork(k, nil, DefaultConfig())
	lg := trace.New(0)
	n.SetTrace(lg)
	a, err := n.AddHost(addrA, netem.PipeConfig{Loss: loss}, netem.PipeConfig{})
	if err != nil {
		return r, err
	}
	b, err := n.AddHost(addrB, netem.PipeConfig{}, netem.PipeConfig{})
	if err != nil {
		return r, err
	}
	k.Go("server", func(p *sim.Proc) {
		l, err := b.Listen(p, 80)
		if err != nil {
			return
		}
		c, err := l.Accept(p)
		if err != nil {
			return
		}
		for {
			meta, err := c.Recv(p)
			if err != nil {
				return
			}
			r.got = append(r.got, meta.(int))
		}
	})
	k.Go("client", func(p *sim.Proc) {
		p.Yield()
		c, err := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
		if err != nil {
			return
		}
		for i := 0; i < r.count; i++ {
			c.SendMeta(p, 1, i)
		}
		c.Close(p)
	})
	r.err = k.Run()
	r.stats = n.Stats()
	r.drops = lg.Filter("net.drop")
	return r, nil
}

// gaveUp reports whether the run ended in the documented give-up and
// nothing else: every dropped message was sent 1 + MaxRetransmits
// times, only the half-open receiver is left parked, and it holds a
// strict prefix.
func (r connRun) gaveUp() bool {
	if r.stats.MessagesDropped == 0 || len(r.got) >= r.count {
		return false
	}
	if r.stats.Retransmits < r.stats.MessagesDropped*MaxRetransmits ||
		uint64(len(r.drops)) != r.stats.MessagesDropped {
		return false
	}
	spent := fmt.Sprintf("lost after %d attempt(s)", 1+MaxRetransmits)
	for _, e := range r.drops {
		if !strings.HasSuffix(e.Msg, spent) {
			return false
		}
	}
	d, ok := r.err.(*sim.DeadlockError)
	return ok && len(d.Blocked) == 1 && d.Blocked[0] == "server"
}

func TestConnExactlyOnceInOrderProperty(t *testing.T) {
	// Over a lossy link, a reliable connection delivers every message
	// exactly once and in order, for any message-count/loss draw. The
	// one exception is the documented give-up: a message lost on all
	// 1 + MaxRetransmits attempts resets the sender, and the receiver,
	// which no packet reaches, stays half-open (the kernel then reports
	// it as the one deadlocked task). Even then what arrived is an
	// in-order prefix, delivered once.
	f := func(countRaw, lossRaw uint8) bool {
		r, err := runConnDraw(countRaw, lossRaw)
		if err != nil {
			return false
		}
		for i, v := range r.got {
			if v != i {
				return false
			}
		}
		if r.err == nil && r.stats.MessagesDropped == 0 && len(r.got) == r.count {
			return true
		}
		return r.gaveUp()
	}
	// 21 messages at 29 % loss: message 7 is lost on all nine attempts.
	// The draw must still give up, or it tests nothing the random ones
	// do not.
	if r, err := runConnDraw(0x3c, 0x1d); err != nil || !r.gaveUp() {
		t.Errorf("draw (0x3c, 0x1d): dropped %d, retransmits %d, got %d of %d, run %v, setup %v; want the give-up",
			r.stats.MessagesDropped, r.stats.Retransmits, len(r.got), r.count, r.err, err)
	}
	if !f(0x3c, 0x1d) {
		t.Error("give-up draw (0x3c, 0x1d) broke the in-order prefix")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDeliveryNeverBeforePhysicalMinimumProperty(t *testing.T) {
	// No message can arrive before serialization + 2×latency allow,
	// for any size and bandwidth draw.
	f := func(sizeRaw uint16, bwRaw uint8) bool {
		size := int(sizeRaw%30000) + 1
		bw := (int64(bwRaw%100) + 1) * 100_000 // 0.1..10 Mb/s
		latency := 10 * time.Millisecond
		k := sim.New(1)
		n := NewNetwork(k, nil, DefaultConfig())
		a, _ := n.AddHost(addrA, netem.PipeConfig{Bandwidth: bw, Delay: latency}, netem.PipeConfig{})
		b, _ := n.AddHost(addrB, netem.PipeConfig{}, netem.PipeConfig{Delay: latency})
		var sentAt, recvAt sim.Time
		k.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			if _, err := c.Recv(p); err == nil {
				recvAt = p.Now()
			}
		})
		k.Go("client", func(p *sim.Proc) {
			p.Yield()
			c, err := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
			if err != nil {
				return
			}
			sentAt = p.Now()
			c.SendMeta(p, size, nil)
		})
		if err := k.Run(); err != nil {
			return false
		}
		if recvAt == 0 {
			return false
		}
		wire := size + HeaderBytes
		minTransit := time.Duration(float64(wire*8)/float64(bw)*float64(time.Second)) + 2*latency
		return recvAt.Sub(sentAt) >= minTransit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
