//go:build !race

package trace

import (
	"io"
	"testing"

	"repro/internal/ip"
	"repro/internal/sim"
)

// TestTypedAddsDoNotAllocate is the allocation gate of the typed hot
// path: an add fills a slot of a chunk that already exists, so it
// formats nothing, boxes nothing and builds no string. The one
// allocation there is, a chunk per chunkSize adds, amortises below one
// and AllocsPerRun's integer division truncates it to 0 — where every
// add through Add costs its formatted string at the least.
func TestTypedAddsDoNotAllocate(t *testing.T) {
	l := New(0)
	src := ip.Endpoint{Addr: ip.MustParseAddr("10.0.0.1"), Port: 6881}
	dst := ip.Endpoint{Addr: ip.MustParseAddr("10.0.0.2"), Port: 51413}
	now := sim.Time(0)
	for name, add := range map[string]func(){
		"NetSend":    func() { l.NetSend(now, src.Addr, 1500, dst, 2) },
		"NetDeliver": func() { l.NetDeliver(now, dst.Addr, 1500, src) },
		"FlowStart":  func() { l.FlowStart(now, "10.0.0.1/up", 7, 1e6, 2) },
		"FlowRerate": func() { l.FlowRerate(now, "10.0.0.1/up", 7, 1e6, 5e5) },
		"FlowDone":   func() { l.FlowDone(now, "10.0.0.1/up", 7) },
	} {
		if got := testing.AllocsPerRun(4*chunkSize, func() { now++; add() }); got != 0 {
			t.Errorf("%s: %v allocs per add, want 0", name, got)
		}
	}

	// A bounded log in steady state: dropping a chunk frees, adding one
	// allocates, still one per chunk of adds.
	b := New(3 * chunkSize)
	if got := testing.AllocsPerRun(8*chunkSize, func() { now++; b.NetDeliver(now, dst.Addr, 40, src) }); got != 0 {
		t.Errorf("bounded NetDeliver: %v allocs per add, want 0", got)
	}
}

// TestRenderAllocatesPerCall: Render's allocations are its block buffer
// and nothing per record — no Sprintf, no Time.String, no boxed field.
func TestRenderAllocatesPerCall(t *testing.T) {
	const records = 100000
	l := New(0)
	src := ip.Endpoint{Addr: ip.MustParseAddr("10.0.0.1"), Port: 6881}
	for i := 0; i < records; i += 4 {
		at := sim.Time(i) * 1500
		l.NetSend(at, src.Addr, i, src, 1)
		l.FlowRerate(at, "10.0.0.1/up", uint64(i), float64(i), 1e6)
		l.NetDeliver(at, src.Addr, i, src)
		l.Add(at, "net.drop", "10.0.0.1", "%d B to %v dropped", i, src)
	}
	got := testing.AllocsPerRun(3, func() {
		if err := l.Render(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if got > 4 {
		t.Errorf("Render of %d records: %v allocs, want ≤ 4", l.Len(), got)
	}
}
