//go:build !race

package trace

import (
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
)

// TestTypedAddsDoNotAllocate is the allocation gate of the record
// path: a typed add appends a few bytes to a chunk that already
// exists, so it formats nothing, boxes nothing and builds no string,
// and Add formats into the log's scratch buffer and copies the bytes
// in, so it builds no string either. The one allocation there is, a
// chunk per 16 KiB of records, amortises below one and AllocsPerRun's
// integer division truncates it to 0.
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
		"Add":        func() { l.Add(now, "net.heal", "10.0.0.1", "link healed") },
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

// TestTypedRecordBytes: a stored record costs its encoding and its
// share of a chunk, nothing else. 100 000 typed records in the mix of a
// corpus pass (per 1 000: 629 rerates, 151 sends, 147 deliveries, 37
// starts, 36 dones), with fair-share rates that are mostly fractions,
// must allocate at most 24 B each.
func TestTypedRecordBytes(t *testing.T) {
	const records = 100000
	src := ip.Endpoint{Addr: ip.MustParseAddr("10.0.1.7"), Port: 51413}
	dst := ip.MustParseAddr("10.0.0.3")
	pipes := []string{"10.0.0.3/up", "10.0.1.7/down", "core"}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l := New(0)
	for i := 0; i < records; i++ {
		at := sim.Time(i) * 20 * sim.Time(time.Microsecond)
		pipe, id := pipes[i%len(pipes)], uint64(i/8)
		rate := 1e6 / float64(3+2*(i%5)) // a fifth of them whole, as a quarter of the corpus's are
		switch m := i % 1000; {
		case m < 629:
			l.FlowRerate(at, pipe, id, rate, rate/2)
		case m < 780:
			l.NetSend(at, src.Addr, 16397, ip.Endpoint{Addr: dst, Port: 6881}, 7)
		case m < 927:
			l.NetDeliver(at, dst, 16397, src)
		case m < 964:
			l.FlowStart(at, pipe, id, rate, 2)
		default:
			l.FlowDone(at, pipe, id)
		}
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(l)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / records; per > 24 {
		t.Errorf("%d typed records allocated %.1f B each, want ≤ 24", records, per)
	} else {
		t.Logf("%.1f B per record", per)
	}
}
