package bt

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

func at(d time.Duration) sim.Time { return sim.Time(0).Add(d) }

// tickIdx is the tick index of now on a lattice whose ticks start at 0.
func tickIdx(now sim.Time) int { return int(now.Sub(0) / tick) }

func TestRateEstimator(t *testing.T) {
	var r RateEstimator
	now := sim.Time(0)
	// 1000 bytes/s for 20 seconds.
	for i := 0; i < 20; i++ {
		r.Add(now, tickIdx(now), 1000)
		now = now.Add(time.Second)
	}
	got := r.Rate(now, tickIdx(now))
	if got < 900 || got > 1100 {
		t.Fatalf("rate = %v, want ≈1000 B/s", got)
	}
	// After 30 idle seconds the window is empty.
	if idle := now.Add(30 * time.Second); r.Rate(idle, tickIdx(idle)) != 0 {
		t.Fatal("stale window should decay to zero")
	}
}

// TestRateWarmUp: during warm-up the divisor is the elapsed time since
// first activity, not the full window — a transfer 2 s into a 20 s
// window must not report 10× low (that ordering feeds choke/unchoke).
func TestRateWarmUp(t *testing.T) {
	var r RateEstimator
	r.Add(at(0), 0, 1000)
	r.Add(at(time.Second), 0, 1000)
	if got, want := r.Rate(at(2*time.Second), 0), 1000.0; got != want {
		t.Fatalf("warm-up rate = %g B/s, want %g (2000 B over 2 s)", got, want)
	}
}

// TestRateFullWindow: once a full window has elapsed, the divisor is
// the window again.
func TestRateFullWindow(t *testing.T) {
	var r RateEstimator
	for i := 0; i <= 40; i++ {
		now := at(time.Duration(i) * time.Second)
		r.Add(now, tickIdx(now), 500)
	}
	// Samples at 20..40 s inclusive, ticks 4..8, are in the window:
	// 21 × 500 B over the 20 s window.
	if got, want := r.Rate(at(40*time.Second), 8), 21*500.0/20; got != want {
		t.Fatalf("steady rate = %g B/s, want %g", got, want)
	}
}

// TestRateFirstInstant: the warm-up divisor is clamped to one second,
// so a block recorded moments before the query reads as block/1s —
// never as an unbounded instantaneous spike.
func TestRateFirstInstant(t *testing.T) {
	var r RateEstimator
	r.Add(at(5*time.Second), 1, 4096)
	if got, want := r.Rate(at(5*time.Second), 1), 4096.0; got != want {
		t.Fatalf("instantaneous rate = %g, want %g (1 s floor)", got, want)
	}
	if got, want := r.Rate(at(5*time.Second+time.Millisecond), 1), 4096.0; got != want {
		t.Fatalf("rate 1 ms in = %g, want %g (1 s floor)", got, want)
	}
	if got, want := r.Rate(at(7*time.Second), 1), 2048.0; got != want {
		t.Fatalf("rate after 2 s = %g, want %g", got, want)
	}
}

// TestRateIdleWindowEmpties: after a long idle stretch the window
// drains and the rate returns to zero, warm-up logic notwithstanding.
func TestRateIdleWindowEmpties(t *testing.T) {
	var r RateEstimator
	r.Add(at(0), 0, 1000)
	if got := r.Rate(at(time.Minute), 12); got != 0 {
		t.Fatalf("idle rate = %g, want 0", got)
	}
}

// TestRateResumeAfterIdle: draining the window restarts warm-up, so a
// transfer resuming after a long idle gap is divided by time since the
// resume, not by the full window (the same 10× under-report the
// warm-up fix targets, via a different path).
func TestRateResumeAfterIdle(t *testing.T) {
	var r RateEstimator
	r.Add(at(0), 0, 1000)
	r.Add(at(5*time.Second), 1, 1000)
	// Idle straight into the resume — no Rate() call during the gap,
	// so Add itself must notice the drained window.
	r.Add(at(2*time.Minute), 24, 1000)
	r.Add(at(2*time.Minute+time.Second), 24, 1000)
	if got, want := r.Rate(at(2*time.Minute+2*time.Second), 24), 1000.0; got != want {
		t.Fatalf("resumed rate = %g, want %g (2000 B over 2 s since resume)", got, want)
	}
}

// TestRateTickEdge pins where the tick window and the exact 20 s window
// part. At T_k + 2 µs the window is ticks k−4..k, from T_{k−4}: a
// sample 1 µs after T_{k−4} is in it, though it lies before
// now − 20 s. On the lattice the two windows are the same.
func TestRateTickEdge(t *testing.T) {
	var r RateEstimator
	r.Add(at(time.Microsecond), 0, 500) // T_0 + 1 µs
	r.Add(at(12*time.Second), 2, 700)
	if got, want := r.Rate(at(20*time.Second), 4), 1200/(20*time.Second-time.Microsecond).Seconds(); got != want {
		t.Errorf("rate at T_4 = %g, want %g", got, want)
	}
	if got, want := r.Rate(at(20*time.Second+2*time.Microsecond), 4), 1200.0/20; got != want {
		t.Errorf("rate at T_4 + 2 µs = %g, want %g (the sample at T_0 + 1 µs counts)", got, want)
	}
	ref := newRefEstimator(rateWindow)
	ref.Add(at(time.Microsecond), 500)
	ref.Add(at(12*time.Second), 700)
	if got, want := ref.Rate(at(20*time.Second+2*time.Microsecond)), 700.0/20; got != want {
		t.Errorf("exact rate at T_4 + 2 µs = %g, want %g", got, want)
	}
	if got, want := r.Rate(at(25*time.Second), 5), 700.0/20; got != want {
		t.Errorf("rate at T_5 = %g, want %g", got, want)
	}
}

// rateSample is one Add of the reference estimators.
type rateSample struct {
	at    sim.Time
	bytes int64
}

// refEstimator is the exact sliding-window estimator: it keeps every
// sample of the last window, as bt's estimator did before it summed
// per tick. The oracle drives it side by side with RateEstimator: on
// the tick lattice, where rechoke reads rates, the two must agree
// exactly, since choke order, the optimistic RNG draw and every golden
// digest depend on it.
type refEstimator struct {
	window  time.Duration
	samples []rateSample
	total   int64 // bytes within the window
	first   sim.Time
	started bool // first activity recorded
}

func newRefEstimator(window time.Duration) *refEstimator {
	if window <= 0 {
		window = 20 * time.Second
	}
	return &refEstimator{window: window}
}

func (r *refEstimator) Add(now sim.Time, bytes int64) {
	r.trim(now)
	if !r.started {
		r.started = true
		r.first = now
	}
	r.samples = append(r.samples, rateSample{at: now, bytes: bytes})
	r.total += bytes
}

func (r *refEstimator) trim(now sim.Time) {
	cutoff := now.Add(-r.window)
	i := 0
	for i < len(r.samples) && r.samples[i].at < cutoff {
		r.total -= r.samples[i].bytes
		i++
	}
	if i > 0 {
		r.samples = append(r.samples[:0], r.samples[i:]...)
		if len(r.samples) == 0 {
			r.started = false
		}
	}
}

func (r *refEstimator) Rate(now sim.Time) float64 {
	r.trim(now)
	if len(r.samples) == 0 {
		return 0
	}
	span := now.Sub(r.first)
	if span < time.Second {
		span = time.Second
	}
	if span > r.window {
		span = r.window
	}
	return float64(r.total) / span.Seconds()
}

// edgeSteps are the clock advances an op byte below len(edgeSteps)
// selects; larger bytes advance 25 ms per step above it (up to ~6 s).
var edgeSteps = [...]time.Duration{
	0, time.Nanosecond, time.Microsecond,
	rateWindow - time.Nanosecond, rateWindow, rateWindow + time.Nanosecond,
	time.Second, tick, 2 * time.Minute,
}

// windowSteps is the first index of edgeSteps' three steps around the
// window.
const windowSteps = 3

func rateStep(b byte) time.Duration {
	if int(b) < len(edgeSteps) {
		return edgeSteps[b]
	}
	return time.Duration(int(b)-len(edgeSteps)) * 25 * time.Millisecond
}

// rateCoverage counts the situations a run of checkRateOps reached.
type rateCoverage struct {
	sameInstant int    // Adds at the instant of the previous sample
	gaps        [3]int // ops on a started window after a step of 20 s −1 ns, 20 s, 20 s +1 ns
	drainResume int    // Adds that restarted warm-up after an idle gap
	skipped     int    // Adds on a live window ≥ 2 ticks past its newest sample
	onLattice   int    // Rate queries on a tick edge
	tickGap     int    // Rate queries with a sample in [T_{k−4}, now − 20 s) on a live window
}

// checkRateOps decodes an op stream and drives tick-summed and
// reference estimators side by side, failing on the first divergence.
// Ticks start at instant 0. data[0] picks 1–4 estimators (low two bits)
// and the instant of the first op, (data[0]>>2) × 79 ms. Each following
// 3-byte op is: estimator and kind (b0: index b0 mod n; (b0>>2) mod 8
// is Add for 0–4, Rate for 5–6, and for 7 a Rate on the next tick edge
// at or after the stepped clock), clock step (b1, rateStep) and bytes
// (b2 × 97).
//
// Each estimator's oracle is the list of its samples since it last
// restarted. At every Rate in tick k, RateEstimator must report that
// list summed over [T_{k−4}, now] (or 0 if its newest sample is before
// now − 20 s), and it must equal refEstimator whenever no sample lies in
// [T_{k−4}, now − 20 s).
func checkRateOps(t testing.TB, data []byte, cov *rateCoverage) {
	if len(data) == 0 {
		return
	}
	n := 1 + int(data[0]&3)
	refs := make([]*refEstimator, n)
	ests := make([]RateEstimator, n)
	since := make([][]rateSample, n)
	for i := range refs {
		refs[i] = newRefEstimator(rateWindow)
	}
	now := at(time.Duration(data[0]>>2) * 79 * time.Millisecond)
	for op, ops := 0, data[1:]; len(ops) >= 3; op, ops = op+1, ops[3:] {
		i := int(ops[0]) % n
		ref, r, s := refs[i], &ests[i], since[i]
		step := rateStep(ops[1])
		now = now.Add(step)
		kind := ops[0] >> 2 % 8
		if kind == 7 {
			now = at(time.Duration(tickIdx(now.Add(tick-1))) * tick)
		}
		k := tickIdx(now)
		cut := now.Add(-rateWindow)
		live := len(s) > 0 && s[len(s)-1].at >= cut
		if len(s) > 0 {
			for g, d := range edgeSteps[windowSteps : windowSteps+3] {
				if step == d {
					cov.gaps[g]++
				}
			}
		}
		if kind < 5 {
			switch {
			case !live && len(s) > 0:
				cov.drainResume++
			case live && s[len(s)-1].at == now:
				cov.sameInstant++
			case live && k-tickIdx(s[len(s)-1].at) >= 2:
				cov.skipped++
			}
			if !live {
				s = s[:0]
			}
			b := int64(ops[2]) * 97
			s = append(s, rateSample{at: now, bytes: b})
			since[i] = s
			ref.Add(now, b)
			r.Add(now, k, b)
			if r.first != s[0].at || ref.first != s[0].at {
				t.Fatalf("op %d: estimator %d warm-up origin %v, reference %v, want %v", op, i, r.first, ref.first, s[0].at)
			}
			continue
		}
		want, gap := 0.0, false
		if live {
			lo := at(time.Duration(k-rateTicks) * tick)
			var total int64
			for _, x := range s {
				if x.at >= lo {
					total += x.bytes
					gap = gap || x.at < cut
				}
			}
			span := min(max(now.Sub(s[0].at), time.Second), rateWindow)
			want = float64(total) / span.Seconds()
		}
		if got := r.Rate(now, k); got != want {
			t.Fatalf("op %d: estimator %d Rate(%v) = %v, its samples over ticks %d..%d give %v", op, i, now, got, k-rateTicks, k, want)
		}
		if exact := ref.Rate(now); !gap && want != exact {
			t.Fatalf("op %d: estimator %d Rate(%v) = %v, reference %v, and no sample lies in [T_%d, now − 20 s)", op, i, now, want, exact, k-rateTicks)
		}
		if gap {
			cov.tickGap++
		}
		if now == at(time.Duration(k)*tick) {
			cov.onLattice++
		}
	}
}

// rateEdgeSeqs are hand-built op streams for the boundaries: the first
// byte is the estimator count and start, then (b0, step, bytes)
// triples. Each stream comes twice: starting on a tick edge, and 79 ms
// past one.
func rateEdgeSeqs() [][]byte {
	add, rate, edge := byte(0), byte(5<<2), byte(7<<2)
	const ns, us, win, sec, tk, idle = 1, 2, 4, 6, 7, 8
	var seqs [][]byte
	// Same-instant adds, then a query exactly one window later (the
	// samples sit on the cutoff and count), then 1 ns more.
	seqs = append(seqs, []byte{0, add, sec, 10, add, 0, 20, add, 0, 30, rate, win, 0, rate, ns, 0, add, ns, 40})
	// Gaps just under, at and over the window after one sample.
	for _, g := range []byte{win - 1, win, win + 1} {
		seqs = append(seqs, []byte{0, add, sec, 1, add, g, 2, rate, 0, 0, add, g, 3, rate, 0, 0})
	}
	// The one difference: a sample 1 µs past a tick edge, one 20 s
	// later, and a query 1 µs after that, then on the next edge.
	seqs = append(seqs, []byte{0, edge, 0, 0, add, us, 5, add, win, 7, rate, us, 0, edge, 0, 0, rate, tk, 0})
	// A sample every tick across two windows, each queried off and on
	// the lattice.
	s := []byte{0}
	for j := 0; j < 10; j++ {
		s = append(s, add, tk, byte(j), rate, sec, 0, edge, 0, 0)
	}
	seqs = append(seqs, s)
	// Samples one, two and three ticks apart (slots skipped), a 2 min
	// idle, and a resume.
	seqs = append(seqs, []byte{0, add, sec, 1, add, tk, 2, rate, tk, 0, add, tk, 3, rate, tk, 0, rate, tk, 0,
		add, tk, 4, edge, 0, 0, add, idle, 5, rate, 0, 0, add, sec, 6, edge, 0, 0})
	// Dense samples: 25 ms apart for 30 s, queried every ~1.2 s.
	s = []byte{0}
	for j := 0; j < 1200; j++ {
		s = append(s, add, 10, byte(j))
		if j%48 == 47 {
			s = append(s, rate, 0, 0)
		}
	}
	seqs = append(seqs, s)
	// Four estimators interleaved, one of them idle across windows.
	s = []byte{3}
	for j := 0; j < 120; j++ {
		s = append(s, add|byte(j%3), 9+byte(j%5)*40, byte(j))
		if j%17 == 16 {
			s = append(s, rate|3, 0, 0, edge|byte(j%4), 0, 0)
		}
	}
	seqs = append(seqs, s)
	// A sample 1 ns before a tick edge, queried on the edge 20 s later
	// and 1 ns after it.
	seqs = append(seqs, []byte{0, edge, 0, 0, add, win - 1, 5, add, win, 9, edge, 0, 0, rate, ns, 0})
	both := make([][]byte, 0, 2*len(seqs))
	for _, s := range seqs {
		both = append(both, s)
	}
	for _, s := range seqs {
		both = append(both, append([]byte{s[0] | 4}, s[1:]...))
	}
	return both
}

// genRateOps draws one op stream: a random config and 1–300 ops whose
// steps are mostly short (so windows hold tens of samples across
// several ticks), with edge steps and Rate queries on and off the
// lattice mixed in.
func genRateOps(rng *rand.Rand) []byte {
	ops := 1 + rng.Intn(300)
	maxStep := 1 + rng.Intn(40) // per-sequence density
	data := []byte{byte(rng.Intn(256))}
	for j := 0; j < ops; j++ {
		var kind byte
		switch x := rng.Intn(100); {
		case x < 70:
			kind = 0
		case x < 92:
			kind = 5
		default:
			kind = 7
		}
		step := byte(len(edgeSteps) + rng.Intn(maxStep))
		if rng.Intn(12) == 0 {
			step = byte(rng.Intn(len(edgeSteps)))
		}
		data = append(data, kind<<2|byte(rng.Intn(4)), step, byte(rng.Intn(256)))
	}
	return data
}

// TestRateTickSumsMatchSamples is the equivalence property: on
// thousands of seeded op streams the tick-summed estimator reports,
// compared with ==, its samples summed over its tick window, and the
// exact reference's Rate wherever the two windows hold the same
// samples.
func TestRateTickSumsMatchSamples(t *testing.T) {
	var cov rateCoverage
	for _, s := range rateEdgeSeqs() {
		checkRateOps(t, s, &cov)
	}
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 5000; seq++ {
		checkRateOps(t, genRateOps(rng), &cov)
	}
	t.Logf("coverage: %+v", cov)
	if cov.sameInstant == 0 || cov.drainResume == 0 || cov.skipped == 0 || cov.onLattice == 0 || cov.tickGap == 0 {
		t.Errorf("coverage gap: %+v", cov)
	}
	for g, n := range cov.gaps {
		if n == 0 {
			t.Errorf("no op after a step of %v", edgeSteps[windowSteps+g])
		}
	}
}

// FuzzRateEstimator runs the equivalence check on arbitrary op streams.
func FuzzRateEstimator(f *testing.F) {
	for _, s := range rateEdgeSeqs() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRateOps(t, data, &rateCoverage{})
	})
}
