package sim_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// determinismWorkload is a deliberately messy mix of everything the
// event queue must order: parked goroutines with tie-heavy sleep
// durations, timers that get cancelled and rescheduled mid-run, and
// far-future events that fall off the horizon. Every observable step is
// written to a trace log.
func determinismWorkload(seed int64) (string, sim.Stats, error) {
	k := sim.New(seed)
	lg := trace.New(0)

	// Tie-heavy sleepers: coarse sleep quanta force many same-instant
	// wakeups whose relative order is pure (at, seq) FIFO.
	for i := 0; i < 8; i++ {
		k.Go(fmt.Sprintf("worker-%d", i), func(p *sim.Proc) {
			for j := 0; j < 60; j++ {
				p.Sleep(time.Duration(p.Rand().Intn(4)) * time.Millisecond)
				lg.Add(p.Now(), "step", p.Name(), "j=%d", j)
			}
		})
	}

	// Timers scheduled on a coarse lattice (more ties), a third of which
	// are later cancelled and a third rescheduled.
	var timers []*sim.Event
	for i := 0; i < 48; i++ {
		i := i
		at := sim.Time(i%6) * sim.Time(20*time.Millisecond)
		timers = append(timers, k.At(at, func() {
			lg.Add(k.Now(), "timer", "", "i=%d", i)
		}))
	}
	k.After(30*time.Millisecond, func() {
		lg.Add(k.Now(), "perturb", "", "cancel+reschedule")
		for i, ev := range timers {
			switch i % 3 {
			case 0:
				ev.Cancel()
			case 1:
				ev.Reschedule(k.Now().Add(time.Duration(i) * time.Millisecond))
			}
		}
	})

	// Far-future events, past the horizon: they must be discarded
	// without ever firing.
	for i := 0; i < 16; i++ {
		i := i
		k.At(sim.Time(400*24*time.Hour)+sim.Time(i), func() {
			lg.Add(k.Now(), "far", "", "i=%d", i)
		})
	}

	err := k.RunUntil(sim.Time(5 * time.Second))
	var buf bytes.Buffer
	if rerr := lg.Render(&buf); rerr != nil {
		return "", sim.Stats{}, rerr
	}
	return buf.String(), k.Snapshot(), err
}

// TestRepeatedRunsAreIdentical is the baseline reproducibility check:
// the same seed gives the same bytes run over run.
func TestRepeatedRunsAreIdentical(t *testing.T) {
	a, as, err := determinismWorkload(99)
	if err != nil {
		t.Fatal(err)
	}
	b, bs, err := determinismWorkload(99)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || as != bs {
		t.Error("repeated run diverged")
	}
	if !strings.Contains(a, "perturb") {
		t.Fatal("workload never reached the cancel/reschedule phase")
	}
	if strings.Contains(a, "far") {
		t.Fatal("far-future event fired inside the horizon")
	}
}

// timerModel is the reference the kernel's timer API is checked
// against: the pending timers in a plain slice, dispatched by a scan
// for the least (at, seq), with its own clock and seq counter. It mirrors the
// documented contract only — schedule times clamp to now, every
// successful schedule or reschedule takes the next seq, a cancelled or
// fired timer is gone.
type timerModel struct {
	now     sim.Time
	seq     uint64
	pending []modelTimer
}

type modelTimer struct {
	at  sim.Time
	seq uint64
	id  int
}

func (m *timerModel) schedule(at sim.Time, id int) {
	if at < m.now {
		at = m.now
	}
	m.pending = append(m.pending, modelTimer{at: at, seq: m.seq, id: id})
	m.seq++
}

// cancel removes timer id and reports whether it was pending.
func (m *timerModel) cancel(id int) bool {
	for i, tm := range m.pending {
		if tm.id == id {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return true
		}
	}
	return false
}

func (m *timerModel) reschedule(id int, at sim.Time) bool {
	if !m.cancel(id) {
		return false
	}
	m.schedule(at, id)
	return true
}

// next removes and returns the earliest pending timer by (at, seq),
// advancing the model clock to it.
func (m *timerModel) next() modelTimer {
	min := 0
	for i, tm := range m.pending {
		if first := m.pending[min]; tm.at < first.at || (tm.at == first.at && tm.seq < first.seq) {
			min = i
		}
	}
	tm := m.pending[min]
	m.cancel(tm.id)
	m.now = tm.at
	return tm
}

// timerScript runs a kernel and a timerModel in lock step through one
// seeded random script. Every dispatched callback first checks it is
// the timer the model dispatches next, at the model's instant, then
// performs a few random operations on both sides; after every
// operation the kernel's queue length must equal the model's live
// timer count.
type timerScript struct {
	t       *testing.T
	k       *sim.Kernel
	m       timerModel
	rng     *rand.Rand
	handles []handle
	timers  int // ids issued
	budget  int // operations left before callbacks go quiet
	fired   uint64
}

type handle struct {
	h  *sim.Event
	id int
}

// victim picks a handle to cancel or move: half the time a recent one,
// likely still pending, otherwise any ever issued — fired, cancelled,
// or one whose struct has since been recycled for another timer.
func (s *timerScript) victim() *handle {
	n := len(s.handles)
	if n == 0 {
		return nil
	}
	if recent := 64; s.rng.Intn(2) == 0 && n > recent {
		return &s.handles[n-1-s.rng.Intn(recent)]
	}
	return &s.handles[s.rng.Intn(n)]
}

func (s *timerScript) callback(id int) func() {
	return func() {
		want := s.m.next()
		if want.id != id || want.at != s.k.Now() {
			s.t.Fatalf("dispatch %d: kernel fired timer %d at %v, model expects timer %d at %v",
				s.fired, id, s.k.Now(), want.id, want.at)
		}
		s.fired++
		for n := 1 + s.rng.Intn(4); n > 0; n-- {
			s.step()
		}
	}
}

// randomAt draws an instant from the shapes the queue must order:
// the current instant, the past (clamped), a lattice that makes ties,
// a dense near-now cluster, and a far-future tail partly beyond the
// horizon.
func (s *timerScript) randomAt() sim.Time {
	now := s.m.now
	switch s.rng.Intn(8) {
	case 0:
		return now
	case 1:
		return now - sim.Time(s.rng.Intn(int(time.Second)))
	case 2:
		return (now/sim.Time(time.Millisecond) + sim.Time(1+s.rng.Intn(3))) * sim.Time(time.Millisecond)
	case 3:
		return now.Add(time.Duration(1+s.rng.Intn(48)) * time.Hour)
	default:
		return now.Add(time.Duration(s.rng.Intn(int(200 * time.Microsecond))))
	}
}

// step performs one random operation on the kernel and the model.
func (s *timerScript) step() {
	if s.budget == 0 {
		return
	}
	s.budget--
	id := s.timers
	switch op := s.rng.Intn(10); {
	case op < 2:
		at := s.randomAt()
		s.handles = append(s.handles, handle{s.k.At(at, s.callback(id)), id})
		s.m.schedule(at, id)
		s.timers++
	case op < 4:
		d := time.Duration(s.rng.Intn(int(time.Millisecond))) - 100*time.Microsecond
		s.handles = append(s.handles, handle{s.k.After(d, s.callback(id)), id})
		s.m.schedule(s.m.now.Add(d), id)
		s.timers++
	case op < 6 && s.fired > 0: // Schedule needs the token: callbacks only
		at := s.randomAt()
		s.k.Schedule(at, s.callback(id))
		s.m.schedule(at, id)
		s.timers++
	case op < 8:
		victim := s.victim()
		if victim == nil {
			break
		}
		if got, want := victim.h.Cancel(), s.m.cancel(victim.id); got != want {
			s.t.Fatalf("Cancel(timer %d) = %v, model says %v", victim.id, got, want)
		}
	default:
		victim := s.victim()
		if victim == nil {
			break
		}
		at := s.randomAt()
		if got, want := victim.h.Reschedule(at), s.m.reschedule(victim.id, at); got != want {
			s.t.Fatalf("Reschedule(timer %d) = %v, model says %v", victim.id, got, want)
		}
	}
	if got, want := s.k.QueueLen(), len(s.m.pending); got != want {
		s.t.Fatalf("QueueLen() = %d with %d live timers", got, want)
	}
}

// TestTimersMatchModel is the property test behind the kernel's single
// event queue: for any script of At/After/Schedule/Cancel/Reschedule,
// dispatch order, handle results, Stats and queue length are those of
// the sorted-slice model.
func TestTimersMatchModel(t *testing.T) {
	const horizon = sim.Time(24 * time.Hour)
	for seed := int64(1); seed <= 8; seed++ {
		s := &timerScript{t: t, k: sim.New(seed), rng: rand.New(rand.NewSource(seed)), budget: 20000}
		for i := 0; i < 200; i++ {
			s.step()
		}
		if err := s.k.RunUntil(horizon); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if s.budget != 0 {
			t.Fatalf("seed %d: script died out with %d operations unspent", seed, s.budget)
		}
		for _, tm := range s.m.pending {
			if tm.at <= horizon {
				t.Fatalf("seed %d: timer %d due at %v never fired", seed, tm.id, tm.at)
			}
		}
		if got := s.k.QueueLen(); got != 0 {
			t.Fatalf("seed %d: QueueLen() = %d after the horizon, want 0", seed, got)
		}
		if got, want := s.k.Snapshot(), (sim.Stats{Events: s.fired}); got != want {
			t.Fatalf("seed %d: stats %+v, model %+v", seed, got, want)
		}
	}
}

// TestRescheduleKeepsQueueAtLiveTimers is the flow solver's pattern:
// every live timer moved many times before it fires. The queue must
// hold one entry per live timer however often they move.
func TestRescheduleKeepsQueueAtLiveTimers(t *testing.T) {
	const live, moves = 1000, 100
	k := sim.New(1)
	fired := 0
	evs := make([]*sim.Event, live)
	for i := range evs {
		evs[i] = k.At(sim.Time(time.Hour), func() { fired++ })
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < moves; round++ {
		for _, ev := range evs {
			if !ev.Reschedule(sim.Time(time.Hour).Add(time.Duration(rng.Intn(int(time.Hour))))) {
				t.Fatal("Reschedule of a pending timer failed")
			}
		}
	}
	if got := k.QueueLen(); got != live {
		t.Fatalf("QueueLen() = %d after %d moves of %d timers, want %d", got, moves, live, live)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != live {
		t.Fatalf("fired %d timers, want %d", fired, live)
	}
}

// TestRescheduleOntoOccupiedInstant checks a moved timer queues behind
// the timers already at its new instant, and ahead of later arrivals.
func TestRescheduleOntoOccupiedInstant(t *testing.T) {
	k := sim.New(1)
	var order []string
	note := func(name string) func() { return func() { order = append(order, name) } }
	at := sim.Time(time.Second)
	moved := k.At(2*at, note("moved"))
	k.At(at, note("a"))
	k.At(at, note("b"))
	if !moved.Reschedule(at) {
		t.Fatal("Reschedule of a pending timer failed")
	}
	k.At(at, note("c"))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, " "), "a b moved c"; got != want {
		t.Fatalf("dispatch order %q, want %q", got, want)
	}
}
