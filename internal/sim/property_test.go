package sim

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrderProperty(t *testing.T) {
	// For any multiset of event delays, callbacks fire in nondecreasing
	// time order, and ties fire in insertion order.
	f := func(delaysRaw []uint16) bool {
		k := New(1)
		type fired struct {
			at  Time
			seq int
		}
		var log []fired
		for i, d := range delaysRaw {
			i := i
			at := Time(time.Duration(d) * time.Millisecond)
			k.At(at, func() { log = append(log, fired{at: k.Now(), seq: i}) })
		}
		if err := k.Run(); err != nil {
			return false
		}
		if len(log) != len(delaysRaw) {
			return false
		}
		for i := 1; i < len(log); i++ {
			if log[i].at < log[i-1].at {
				return false
			}
			if log[i].at == log[i-1].at && log[i].seq < log[i-1].seq {
				return false // FIFO tie-break violated
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSleepersWakeSortedProperty(t *testing.T) {
	// Any population of sleepers wakes in sorted delay order.
	f := func(delaysRaw []uint16) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		k := New(1)
		var woke []Time
		for _, d := range delaysRaw {
			d := time.Duration(d) * time.Millisecond
			k.Go("sleeper", func(p *Proc) {
				p.Sleep(d)
				woke = append(woke, p.Now())
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		sorted := append([]Time(nil), woke...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range woke {
			if woke[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestChanFIFOProperty(t *testing.T) {
	// Whatever interleaving of sends, a single receiver observes FIFO
	// order per sender.
	f := func(itemsRaw []uint8) bool {
		k := New(1)
		ch := NewChan[int](k, 0)
		var got []int
		k.Go("recv", func(p *Proc) {
			for i := 0; i < len(itemsRaw); i++ {
				v, err := ch.Recv(p)
				if err != nil {
					return
				}
				got = append(got, v)
			}
		})
		k.Go("send", func(p *Proc) {
			for i, d := range itemsRaw {
				p.Sleep(time.Duration(d) * time.Millisecond)
				ch.Send(p, i)
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		if len(got) != len(itemsRaw) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
