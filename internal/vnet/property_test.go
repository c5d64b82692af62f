package vnet

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
)

func TestConnExactlyOnceInOrderProperty(t *testing.T) {
	// Over a lossy link, a reliable connection delivers every message
	// exactly once and in order, for any message-count/loss draw.
	f := func(countRaw, lossRaw uint8) bool {
		count := int(countRaw%40) + 1
		loss := float64(lossRaw%30) / 100 // 0..0.29
		k := sim.New(int64(countRaw)*31 + int64(lossRaw))
		n := NewNetwork(k, nil, DefaultConfig())
		a, err := n.AddHost(addrA, netem.PipeConfig{Loss: loss}, netem.PipeConfig{})
		if err != nil {
			return false
		}
		b, err := n.AddHost(addrB, netem.PipeConfig{}, netem.PipeConfig{})
		if err != nil {
			return false
		}
		var got []int
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
				pk, err := c.Recv(p)
				if err != nil {
					return
				}
				got = append(got, int(pk.Data[0]))
			}
		})
		k.Go("client", func(p *sim.Proc) {
			p.Yield()
			c, err := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
			if err != nil {
				return
			}
			for i := 0; i < count; i++ {
				c.Send(p, []byte{byte(i)})
			}
			c.Close(p)
		})
		if err := k.Run(); err != nil {
			return false
		}
		if len(got) != count {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
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
			c.Send(p, make([]byte, size))
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
