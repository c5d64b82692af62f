package bt

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
)

func at(d time.Duration) sim.Time { return sim.Time(0).Add(d) }

func TestRateEstimator(t *testing.T) {
	var r RateEstimator
	now := sim.Time(0)
	// 1000 bytes/s for 20 seconds.
	for i := 0; i < 20; i++ {
		r.Add(now, 1000)
		now = now.Add(time.Second)
	}
	got := r.Rate(now)
	if got < 900 || got > 1100 {
		t.Fatalf("rate = %v, want ≈1000 B/s", got)
	}
	// After 30 idle seconds the window is empty.
	if r.Rate(now.Add(30*time.Second)) != 0 {
		t.Fatal("stale window should decay to zero")
	}
}

// TestRateWarmUp: during warm-up the divisor is the elapsed time since
// first activity, not the full window — a transfer 2 s into a 20 s
// window must not report 10× low (that ordering feeds choke/unchoke).
func TestRateWarmUp(t *testing.T) {
	var r RateEstimator
	r.Add(at(0), 1000)
	r.Add(at(time.Second), 1000)
	now := at(2 * time.Second)
	if got, want := r.Rate(now), 1000.0; got != want {
		t.Fatalf("warm-up rate = %g B/s, want %g (2000 B over 2 s)", got, want)
	}
}

// TestRateFullWindow: once a full window has elapsed, the divisor is
// the window again.
func TestRateFullWindow(t *testing.T) {
	var r RateEstimator
	for i := 0; i <= 40; i++ {
		r.Add(at(time.Duration(i)*time.Second), 500)
	}
	now := at(40 * time.Second)
	// Samples at 20..40 s inclusive survive the trim: 21 × 500 B over
	// the 20 s window.
	if got, want := r.Rate(now), 21*500.0/20; got != want {
		t.Fatalf("steady rate = %g B/s, want %g", got, want)
	}
}

// TestRateFirstInstant: the warm-up divisor is clamped to one second,
// so a block recorded moments before the query reads as block/1s —
// never as an unbounded instantaneous spike.
func TestRateFirstInstant(t *testing.T) {
	var r RateEstimator
	r.Add(at(5*time.Second), 4096)
	if got, want := r.Rate(at(5*time.Second)), 4096.0; got != want {
		t.Fatalf("instantaneous rate = %g, want %g (1 s floor)", got, want)
	}
	if got, want := r.Rate(at(5*time.Second+time.Millisecond)), 4096.0; got != want {
		t.Fatalf("rate 1 ms in = %g, want %g (1 s floor)", got, want)
	}
	if got, want := r.Rate(at(7*time.Second)), 2048.0; got != want {
		t.Fatalf("rate after 2 s = %g, want %g", got, want)
	}
}

// TestRateIdleWindowEmpties: after a long idle stretch the window
// drains and the rate returns to zero, warm-up logic notwithstanding.
func TestRateIdleWindowEmpties(t *testing.T) {
	var r RateEstimator
	r.Add(at(0), 1000)
	if got := r.Rate(at(time.Minute)); got != 0 {
		t.Fatalf("idle rate = %g, want 0", got)
	}
}

// TestRateResumeAfterIdle: draining the window restarts warm-up, so a
// transfer resuming after a long idle gap is divided by time since the
// resume, not by the full window (the same 10× under-report the
// warm-up fix targets, via a different path).
func TestRateResumeAfterIdle(t *testing.T) {
	var r RateEstimator
	r.Add(at(0), 1000)
	r.Add(at(5*time.Second), 1000)
	// Idle straight into the resume — no Rate() call during the gap,
	// so Add itself must notice the drained window.
	r.Add(at(2*time.Minute), 1000)
	r.Add(at(2*time.Minute+time.Second), 1000)
	if got, want := r.Rate(at(2*time.Minute+2*time.Second)), 1000.0; got != want {
		t.Fatalf("resumed rate = %g, want %g (2000 B over 2 s since resume)", got, want)
	}
}

// refEstimator is the slice-backed estimator the chunked one replaced,
// kept verbatim (renamed) as the reference the equivalence tests drive
// side by side with RateEstimator. Choke order, the optimistic RNG draw
// and every golden digest depend on the two agreeing exactly.
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
	0, time.Nanosecond,
	rateWindow - time.Nanosecond, rateWindow, rateWindow + time.Nanosecond,
	time.Second, 2 * time.Minute,
}

func rateStep(b byte) time.Duration {
	if int(b) < len(edgeSteps) {
		return edgeSteps[b]
	}
	return time.Duration(int(b)-len(edgeSteps)) * 25 * time.Millisecond
}

// rateCoverage counts the situations a run of checkRateOps reached.
type rateCoverage struct {
	live        map[int]int // live sample count after an Add → times seen
	sameInstant int         // Adds at the instant of the previous sample
	gaps        [3]int      // ops on a non-empty window after a step of 20 s −1 ns, 20 s, 20 s +1 ns
	drainResume int         // Adds that restarted warm-up after a drained window
	released    int         // release ops on a non-empty window
	sharedPool  int         // runs with ≥ 2 estimators on one pool
	nilPool     int         // runs with a nil pool
}

// checkRateOps decodes an op stream and drives reference and chunked
// estimators side by side, failing on the first divergence. data[0]
// picks 1–4 estimators (low two bits) and a shared pool or a nil one
// (bit 2). Each following 3-byte op is: estimator and kind (b0: index
// b0 mod n; (b0>>2) mod 8 is Add for 0–4, Rate for 5–6, release for
// 7), clock step (b1, rateStep) and bytes (b2 × 97).
func checkRateOps(t testing.TB, data []byte, cov *rateCoverage) {
	if len(data) == 0 {
		return
	}
	n := 1 + int(data[0]&3)
	var pool *chunkPool
	if data[0]&4 == 0 {
		pool = new(chunkPool)
		if n > 1 {
			cov.sharedPool++
		}
	} else {
		cov.nilPool++
	}
	refs := make([]*refEstimator, n)
	ests := make([]RateEstimator, n)
	drained := make([]bool, n)
	for i := range ests {
		refs[i] = newRefEstimator(rateWindow)
		ests[i].pool = pool
	}
	seen := map[*sampleChunk]bool{} // every chunk ever held
	held := map[*sampleChunk]bool{}
	now := sim.Time(0)
	for op, ops := 0, data[1:]; len(ops) >= 3; op, ops = op+1, ops[3:] {
		i := int(ops[0]) % n
		ref, r := refs[i], &ests[i]
		step := rateStep(ops[1])
		now = now.Add(step)
		before := len(ref.samples)
		if before > 0 {
			for g, d := range edgeSteps[2:5] {
				if step == d {
					cov.gaps[g]++
				}
			}
		}
		switch k := ops[0] >> 2 % 8; {
		case k < 5:
			if before > 0 && ref.samples[before-1].at == now {
				cov.sameInstant++
			}
			b := int64(ops[2]) * 97
			ref.Add(now, b)
			r.Add(now, b)
			if (drained[i] || before > 0) && ref.first == now && len(ref.samples) == 1 {
				cov.drainResume++
			}
			drained[i] = false
			cov.live[len(ref.samples)]++
		case k < 7:
			if got, want := r.Rate(now), ref.Rate(now); got != want {
				t.Fatalf("op %d: estimator %d Rate(%v) = %v, reference %v", op, i, now, got, want)
			}
			drained[i] = drained[i] || before > 0 && len(ref.samples) == 0
		default:
			if before > 0 {
				cov.released++
			}
			r.release()
			ref.samples, ref.total, ref.started = ref.samples[:0], 0, false
		}
		if got, want := chunkLen(t, r), len(ref.samples); got != want || r.n != want {
			t.Fatalf("op %d: estimator %d holds %d samples (n = %d), reference %d", op, i, got, r.n, want)
		}
		if r.started != ref.started || r.total != ref.total || r.first != ref.first {
			t.Fatalf("op %d: estimator %d state (started %v total %d first %v), reference (%v %d %v)",
				op, i, r.started, r.total, r.first, ref.started, ref.total, ref.first)
		}
		if pool == nil {
			continue
		}
		clear(held)
		for j := range ests {
			chunkLen(t, &ests[j], held, seen)
		}
		for ch := pool.free; ch != nil; ch = ch.next {
			if held[ch] {
				t.Fatalf("op %d: a pooled chunk is held by an estimator or pooled twice", op)
			}
			held[ch] = true
		}
	}
	if pool == nil {
		return
	}
	for j := range ests {
		ests[j].release()
	}
	if got := pool.len(t); got != len(seen) {
		t.Fatalf("pool holds %d chunks after releasing every estimator, %d were handed out", got, len(seen))
	}
}

// chunkLen counts r's samples by walking its chunks, checking that the
// walk ends at tail, and marks each chunk in marks.
func chunkLen(t testing.TB, r *RateEstimator, marks ...map[*sampleChunk]bool) int {
	if r.head == nil {
		if r.tail != nil {
			t.Fatal("empty estimator keeps a tail chunk")
		}
		return 0
	}
	n := 0
	for ch, hops := r.head, 0; ; ch, hops = ch.next, hops+1 {
		if ch == nil || hops > 1000 {
			t.Fatal("chunk list does not end at tail")
		}
		lo, hi := 0, len(ch.s)
		if ch == r.head {
			lo = r.rd
		}
		if ch == r.tail {
			hi = r.wr
		}
		n += hi - lo
		for _, m := range marks {
			m[ch] = true
		}
		if ch == r.tail {
			return n
		}
	}
}

// len counts the free list, failing on a chunk pooled twice.
func (p *chunkPool) len(t testing.TB) int {
	dup := map[*sampleChunk]bool{}
	for ch := p.free; ch != nil; ch = ch.next {
		if dup[ch] {
			t.Fatal("chunk pooled twice")
		}
		dup[ch] = true
	}
	return len(dup)
}

// rateEdgeSeqs are hand-built op streams for the boundaries: the first
// byte is the estimator/pool config, then (b0, step, bytes) triples.
// Each stream comes twice, all on a nil pool first: a broken chunk walk
// then fails on an index before it can corrupt a free list.
func rateEdgeSeqs() [][]byte {
	add, rate, rel := byte(0), byte(5<<2), byte(7<<2)
	var seqs [][]byte
	// Same-instant adds, then a query exactly one window later (the
	// samples sit on the cutoff and survive), then 1 ns more.
	seqs = append(seqs, []byte{0, add, 7, 10, add, 0, 20, add, 0, 30, rate, 3, 0, rate, 1, 0, add, 1, 40})
	// Gaps just under, at and over the window after one sample.
	for _, g := range []byte{2, 3, 4} {
		seqs = append(seqs, []byte{0, add, 7, 1, add, g, 2, rate, 0, 0, add, g, 3, rate, 0, 0})
	}
	// Live counts across the chunk boundaries (14–16, 29–31), each
	// queried, then a drain, a resume and a release.
	for _, live := range []int{14, 15, 16, 30, 31} {
		s := []byte{0}
		for j := 0; j < live; j++ {
			s = append(s, add, 8, byte(j), rate, 0, 0)
		}
		s = append(s, rate, 6, 0, add, 8, 9, add, 0, 9, rate, 8, 0, rel, 0, 0, add, 8, 1, rate, 0, 0)
		seqs = append(seqs, s)
	}
	// Four estimators on one pool, interleaved across chunk boundaries
	// with releases that hand chunks across.
	s := []byte{3}
	for j := 0; j < 120; j++ {
		s = append(s, add|byte(j%4), 9+byte(j%5), byte(j))
		if j%17 == 16 {
			s = append(s, rel|byte(j%4), 0, 0)
		}
	}
	seqs = append(seqs, s)
	both := make([][]byte, 0, 2*len(seqs))
	for _, s := range seqs {
		both = append(both, append([]byte{s[0] | 4}, s[1:]...))
	}
	return append(both, seqs...)
}

// genRateOps draws one op stream: a random config and 1–300 ops whose
// steps are mostly short (so windows hold tens of samples, across the
// chunk boundaries), with edge steps, Rate queries and releases mixed in.
func genRateOps(rng *rand.Rand) []byte {
	ops := 1 + rng.Intn(300)
	maxStep := 1 + rng.Intn(40) // per-sequence density
	data := []byte{byte(rng.Intn(8))}
	for j := 0; j < ops; j++ {
		var kind byte
		switch x := rng.Intn(100); {
		case x < 70:
			kind = 0
		case x < 97:
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

// TestRateChunksMatchSlice is the equivalence property: on thousands of
// seeded op streams the chunked estimator reports the reference's Rate
// (compared with ==), live count, started flag and totals after every
// op, and a shared pool neither hands out a held chunk nor loses one.
func TestRateChunksMatchSlice(t *testing.T) {
	cov := rateCoverage{live: map[int]int{}}
	for _, s := range rateEdgeSeqs() {
		checkRateOps(t, s, &cov)
	}
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 5000; seq++ {
		checkRateOps(t, genRateOps(rng), &cov)
	}
	for _, n := range []int{14, 15, 16, 30, 31} {
		if cov.live[n] == 0 {
			t.Errorf("no window held %d samples", n)
		}
	}
	if cov.sameInstant == 0 || cov.drainResume == 0 || cov.released == 0 || cov.sharedPool == 0 || cov.nilPool == 0 {
		t.Errorf("coverage gap: %+v", cov)
	}
	for g, n := range cov.gaps {
		if n == 0 {
			t.Errorf("no op after a step of %v", edgeSteps[2+g])
		}
	}
}

// FuzzRateEstimator runs the equivalence check on arbitrary op streams.
func FuzzRateEstimator(f *testing.F) {
	for _, s := range rateEdgeSeqs() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRateOps(t, data, &rateCoverage{live: map[int]int{}})
	})
}

// TestRateReleaseOnPeerExit: a departing peer's estimator chunks go
// back to its client's free list, both when its connection closes
// (onClose) and when the client stops (onStop).
func TestRateReleaseOnPeerExit(t *testing.T) {
	for _, exit := range []string{"onClose", "onStop"} {
		k, _, _, hosts := swarmEnv(t, 1, 2, fastClass)
		meta, _ := SyntheticTorrent("t", 512*1024, 0)
		c := NewClient(hosts[0], meta, NewBitfield(meta.NumPieces()), ip.Endpoint{}, DefaultClientConfig())
		var pooled [2]int
		k.Go("drive", func(p *sim.Proc) {
			l, err := hosts[1].Listen(p, 7000)
			if err != nil {
				t.Error(err)
				return
			}
			p.Go("accept", func(p *sim.Proc) { l.Accept(p) })
			conn, err := c.h.Dial(p, ip.Endpoint{Addr: hosts[1].Addr(), Port: 7000})
			if err != nil {
				t.Error(err)
				return
			}
			pr := newPeer(conn, hosts[1].Addr(), meta.NumPieces())
			pr.downRate.pool, pr.upRate.pool = &c.chunks, &c.chunks // as admit does
			c.registerPeer(pr)
			for j := 0; j < 40; j++ { // 3 chunks each way
				pr.downRate.Add(p.Now(), 16384)
				pr.upRate.Add(p.Now(), 16384)
			}
			pooled[0] = c.chunks.len(t)
			if exit == "onClose" {
				c.onClose(p, pr)
			} else {
				c.onStop(p)
			}
			pooled[1] = c.chunks.len(t)
			k.Stop()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if pooled != [2]int{0, 6} {
			t.Errorf("%s: free list %d → %d chunks, want 0 → 6", exit, pooled[0], pooled[1])
		}
	}
}
