package trace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func at(s int) sim.Time { return sim.Time(time.Duration(s) * time.Second) }

func TestAddAndFilter(t *testing.T) {
	l := New(0)
	l.Add(at(1), "net.send", "10.0.0.1", "msg %d", 1)
	l.Add(at(2), "bt.piece", "10.0.0.2", "piece %d", 7)
	l.Add(at(3), "net.send", "10.0.0.1", "msg %d", 2)
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	sends := l.Filter("net.send")
	if len(sends) != 2 || sends[1].Msg != "msg 2" {
		t.Fatalf("filter = %+v", sends)
	}
	if l.Count("net.send") != 2 || l.Count("bt.piece") != 1 {
		t.Fatal("counts wrong")
	}
	if l.Count("nothing") != 0 {
		t.Fatal("unknown category should count 0")
	}
}

func TestBounded(t *testing.T) {
	l := New(10)
	for i := 0; i < 100; i++ {
		l.Add(at(i), "c", "n", "e%d", i)
	}
	if l.Len() != 10 {
		t.Fatalf("len = %d, want 10", l.Len())
	}
	if l.Count("c") != 100 {
		t.Fatalf("count = %d, want 100 despite truncation", l.Count("c"))
	}
	// The newest event survives.
	events := l.Events()
	if events[len(events)-1].Msg != "e99" {
		t.Fatalf("newest lost: %+v", events[len(events)-1])
	}

	// The contract `p2plab run -trace N` and examples/contention rely
	// on, at every step and for typed and text records alike: a bounded
	// log shows exactly the newest min(max, added) records. It drops
	// whole chunks, so max = 1, a max below, at and off a multiple of
	// the chunk size all have to hold it.
	for _, max := range []int{1, 2, 3, 10, 31, chunkSize, 2*chunkSize + 1, 3*chunkSize - 7} {
		l := New(max)
		total := 3*max + chunkSize
		for i := 0; i < total; i++ {
			if i%2 == 0 {
				l.Add(sim.Time(i), "c", "n", "e%d", i)
			} else {
				l.FlowDone(sim.Time(i), "pipe", uint64(i))
			}
			if want := min(max, i+1); l.Len() != want {
				t.Fatalf("max %d: len = %d after %d adds, want %d", max, l.Len(), i+1, want)
			}
		}
		events := l.Events()
		if len(events) != l.Len() {
			t.Fatalf("max %d: Events has %d, Len says %d", max, len(events), l.Len())
		}
		// What is retained is the newest run, in order, ending at the last add.
		for j, e := range events {
			if want := sim.Time(total - len(events) + j); e.At != want {
				t.Fatalf("max %d: events[%d].At = %d, want %d", max, j, e.At, want)
			}
		}
		if got := l.Count("c") + l.Count("net.flow"); got != uint64(total) {
			t.Fatalf("max %d: counted %d, want %d despite truncation", max, got, total)
		}
		if l.Count("net.flow") != uint64(total/2) {
			t.Fatalf("max %d: net.flow count = %d, want %d", max, l.Count("net.flow"), total/2)
		}
	}
}

func TestBetween(t *testing.T) {
	l := New(0)
	for i := 0; i < 10; i++ {
		l.Add(at(i), "c", "n", "e%d", i)
	}
	mid := l.Between(at(3), at(6))
	if len(mid) != 3 || mid[0].Msg != "e3" || mid[2].Msg != "e5" {
		t.Fatalf("between = %+v", mid)
	}
}

func TestRender(t *testing.T) {
	l := New(0)
	l.Add(at(1), "chord.lookup", "10.0.0.5", "key abc -> node 7")
	var sb strings.Builder
	if err := l.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "chord.lookup") || !strings.Contains(out, "10.0.0.5") {
		t.Fatalf("render = %q", out)
	}
}
