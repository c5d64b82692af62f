package vnet

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/ip"
	"repro/internal/sim"
)

// TestConnSize pins the per-connection state a per-RPC overlay pays
// twice per message: a Conn stays in the 64-byte size class, and the
// receive state it borrows while a task may park on it (inbox Chan at
// 56 bytes, handshake Cond, free-list link) in the 80-byte one. The
// inbox ring's slot is the any a sender passed to SendMeta, 16 bytes. A
// field that pushes one past its class fails here rather than silently
// moving every endpoint into the next class.
func TestConnSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Conn{}); got > 64 {
		t.Errorf("Conn is %d bytes, want at most 64", got)
	}
	if got := unsafe.Sizeof(recvState{}); got > 80 {
		t.Errorf("recvState is %d bytes, want at most 80", got)
	}
	if got := unsafe.Sizeof(sim.Chan[any]{}); got != 56 {
		t.Errorf("sim.Chan[any] is %d bytes, want 56", got)
	}
}

// TestXferSize pins the state every message in flight holds, queued
// in a pipe or waiting on the kernel: an xfer stays in the 208-byte
// size class, its message at 64 bytes, and it binds exactly two
// callbacks (fire, dispatched on the phase byte, and the flow model's
// done), each a 16-byte closure made once per pooled xfer.
func TestXferSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(xfer{}); got > 208 {
		t.Errorf("xfer is %d bytes, want at most 208", got)
	}
	if got := unsafe.Sizeof(message{}); got != 64 {
		t.Errorf("message is %d bytes, want 64", got)
	}
	var funcs []string
	xt := reflect.TypeOf(xfer{})
	for i := 0; i < xt.NumField(); i++ {
		if f := xt.Field(i); f.Type.Kind() == reflect.Func {
			funcs = append(funcs, f.Name)
		}
	}
	if len(funcs) != 2 {
		t.Errorf("xfer binds callbacks %v, want two (fireFn, doneFn)", funcs)
	}
}

// TestSendRefusesSeqWrap checks the end of a connection's 32-bit
// sequence space: the send numbered 2³²−2 is delivered, the next one
// fails with ErrSeqExhausted instead of wrapping to 0, and the FIN,
// numbered 2³²−1, still closes the peer after the data.
func TestSendRefusesSeqWrap(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	var got []any
	var eof error
	var full error
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			l, _ := b.Listen(p, 80)
			c, err := l.Accept(p)
			if err != nil {
				t.Errorf("accept: %v", err)
				return
			}
			for {
				meta, err := c.Recv(p)
				if err != nil {
					eof = err
					return
				}
				got = append(got, meta)
			}
		})
		p.Yield()
		c, err := a.Dial(p, ip.Endpoint{Addr: addrB, Port: 80})
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		// The SYN-ACK that established c linked it to the listener's
		// side.
		c.sendSeq = math.MaxUint32 - 1
		c.peer.recvNext = math.MaxUint32 - 1
		if err := c.SendMeta(p, 1, "last"); err != nil {
			t.Errorf("send numbered 2^32-2: %v", err)
		}
		full = c.SendMeta(p, 1, "wrapped")
		if c.sendSeq != math.MaxUint32 {
			t.Errorf("sendSeq = %d after the refused send, want %d", c.sendSeq, uint32(math.MaxUint32))
		}
		c.Close(p)
	})
	if !errors.Is(full, ErrSeqExhausted) {
		t.Errorf("send past 2^32-1 messages: err = %v, want ErrSeqExhausted", full)
	}
	if len(got) != 1 || got[0] != "last" {
		t.Errorf("peer received %v, want [last]", got)
	}
	if !errors.Is(eof, ErrClosed) {
		t.Errorf("peer's Recv after the FIN: err = %v, want ErrClosed", eof)
	}
}
