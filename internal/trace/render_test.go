package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
)

// lineFormat is the layout Render's lines had while fmt produced them;
// the golden digests pin it.
const lineFormat = "%12s  %-12s %-16s %s\n"

func rendered(t testing.TB, l *Log) string {
	t.Helper()
	var buf bytes.Buffer
	if err := l.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTypedMatchesAdd records every typed kind twice — through its
// entry point, and through Add with the format string the call site
// used before the entry point existed — and requires the same Render
// bytes and the same Events, with the operands at their edges.
func TestTypedMatchesAdd(t *testing.T) {
	instants := []time.Duration{
		0, 1, 999, 1500, // 0s 1ns 999ns 1.5µs: the µ is two bytes, one rune
		59*time.Second + 999999999,
		time.Hour + 500*time.Millisecond,
		-1500 * time.Microsecond,
	}
	rates := []float64{0, 0.5, 1.5, 2.5, 1e15, 123456.789, math.Inf(1), math.NaN()}
	endpoints := []ip.Endpoint{
		{Addr: 0, Port: 0},
		{Addr: 0xffffffff, Port: 65535},
		{Addr: ip.MustParseAddr("10.1.3.207"), Port: 6881},
	}
	pipes := []string{
		"",
		"10.0.0.1/up",
		"a-pipe-name-longer-than-sixteen-bytes",
		"sixteen-runes-µµ", // 18 bytes: padding by len would be two short
		"nœud/down",
	}

	typed, text := New(0), New(0)
	for i, d := range instants {
		at := sim.Time(d)
		rate, other := rates[i%len(rates)], rates[(i+3)%len(rates)]
		for _, e := range endpoints {
			for _, size := range []int{0, 40, 1 << 30} {
				typed.NetSend(at, e.Addr, size, e, i)
				text.Add(at, "net.send", e.Addr.String(), "%d B to %v (kind %d)", size, e, i)
				typed.NetDeliver(at, e.Addr, size, e)
				text.Add(at, "net.deliver", e.Addr.String(), "%d B from %v", size, e)
			}
		}
		for j, pipe := range pipes {
			id := []uint64{0, 7, math.MaxUint64}[j%3]
			typed.FlowStart(at, pipe, id, rate, j)
			text.Add(at, "net.flow", pipe, "flow %d start %.0f bps over %d link(s)", id, rate, j)
			typed.FlowRerate(at, pipe, id, rate, other)
			text.Add(at, "net.flow", pipe, "flow %d rerate %.0f -> %.0f bps", id, rate, other)
			typed.FlowDone(at, pipe, id)
			text.Add(at, "net.flow", pipe, "flow %d done", id)
		}
	}
	for _, r := range rates { // every rate in both rerate positions
		typed.FlowRerate(0, "p", 1, r, r)
		text.Add(0, "net.flow", "p", "flow %d rerate %.0f -> %.0f bps", 1, r, r)
	}

	if got, want := rendered(t, typed), rendered(t, text); got != want {
		t.Errorf("typed and text logs render differently:\n%s", firstDiff(got, want))
	}
	if got, want := typed.Events(), text.Events(); !reflect.DeepEqual(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Events()[%d] = %+v, want %+v", i, got[i], want[i])
			}
		}
		t.Fatalf("Events(): %d typed, %d text", len(got), len(want))
	}
	for _, cat := range []string{"net.send", "net.deliver", "net.flow", "net.drop"} {
		if typed.Count(cat) != text.Count(cat) {
			t.Errorf("Count(%q) = %d typed, %d text", cat, typed.Count(cat), text.Count(cat))
		}
		if got, want := typed.Filter(cat), text.Filter(cat); !reflect.DeepEqual(got, want) {
			t.Errorf("Filter(%q): %d typed, %d text events", cat, len(got), len(want))
		}
	}
}

func firstDiff(got, want string) string {
	g, w := bytes.Split([]byte(got), []byte("\n")), bytes.Split([]byte(want), []byte("\n"))
	for i := range w {
		if i >= len(g) || !bytes.Equal(g[i], w[i]) {
			var have []byte
			if i < len(g) {
				have = g[i]
			}
			return fmt.Sprintf("line %d:\n got %q\nwant %q", i+1, have, w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// TestRenderBlocks renders a log several blocks long, with a line
// longer than a whole block in the middle, against the fmt form: block
// boundaries must not lose, repeat or reorder a byte.
func TestRenderBlocks(t *testing.T) {
	l := New(0)
	var want bytes.Buffer
	long := string(bytes.Repeat([]byte("x"), blockSize+100))
	for i := 0; i < 3*chunkSize+5; i++ {
		at, addr := sim.Time(i)*sim.Time(time.Millisecond), ip.Addr(i)
		e := ip.Endpoint{Addr: addr + 1, Port: ip.Port(i)}
		if i == chunkSize+3 {
			l.Add(at, "long", "n", "%s", long)
			fmt.Fprintf(&want, lineFormat, at, "long", "n", long)
		}
		l.NetDeliver(at, addr, i, e)
		fmt.Fprintf(&want, lineFormat, at, "net.deliver", addr, fmt.Sprintf("%d B from %v", i, e))
	}
	if got := rendered(t, l); got != want.String() {
		t.Errorf("blocked render differs from fmt:\n%s", firstDiff(got, want.String()))
	}
}

// FuzzRenderLine compares the append renderer with the fmt layout over
// arbitrary fields: any bytes, valid UTF-8 or not, must pad and print
// as fmt pads and prints them.
func FuzzRenderLine(f *testing.F) {
	f.Add(int64(0), "net.send", "10.0.0.1", "40 B to 10.0.0.2:6881 (kind 0)")
	f.Add(int64(1500), "net.flow", "sixteen-runes-µµ", "flow 1 done")
	f.Add(int64(math.MinInt64), "", "", "")
	f.Add(int64(math.MaxInt64), "a-category-longer-than-twelve", "n\xffode", "%d %s\n")
	f.Fuzz(func(t *testing.T, at int64, cat, node, msg string) {
		l := New(0)
		l.Add(sim.Time(at), cat, node, "%s", msg)
		want := fmt.Sprintf(lineFormat, time.Duration(at).String(), cat, node, msg)
		if got := rendered(t, l); got != want {
			t.Errorf("Render = %q, want %q", got, want)
		}
		if e := l.Events()[0]; e != (Event{sim.Time(at), cat, node, msg}) {
			t.Errorf("Events()[0] = %+v", e)
		}
	})
}

// FuzzTypedRecords drives three logs through an arbitrary interleaving
// of the five typed entry points and Add: one takes the typed calls,
// one the same events through Add with the format string each call
// site used before its entry point existed, and one is bounded. Both
// unbounded logs must render exactly what fmt lays out for the event
// list and return it from Events, Filter and Count; the bounded one
// must hold exactly the newest min(max, events) of them. ops is a bound byte, then
// records: an op byte, whose low three bits pick the entry point (5–7
// are Add) and whose top bit takes an absolute instant instead of a
// signed one-byte step, then the operands (see fuzzOps). text supplies
// the pipe names, categories, nodes and messages it slices out, so a
// name can be new or one seen before, and a message can be invalid
// UTF-8 or, repeated, longer than a chunk and a block.
func FuzzTypedRecords(f *testing.F) {
	f.Add([]byte{3, 0, 0x80, 1, 2, 3, 4, 5, 6, 7, 8}, "net.drop10.0.0.1dropped")
	f.Fuzz(func(t *testing.T, ops []byte, text string) {
		in := fuzzOps{b: ops}
		max := 1 + int(in.byte())
		typed, viaAdd, bounded := New(0), New(0), New(max)
		var want []Event
		var at sim.Time
		for len(in.b) > 0 {
			op := in.byte()
			if op&0x80 != 0 {
				at = sim.Time(in.u64())
			} else {
				at += sim.Time(int8(in.byte())) // small steps, backwards too
			}
			e := Event{At: at, Cat: "net.flow"}
			switch op & 7 {
			case 0:
				src, size, dst, k := ip.Addr(in.u32()), int(in.u64()), in.endpoint(), int(in.u64())
				e.Cat, e.Node, e.Msg = "net.send", src.String(), fmt.Sprintf("%d B to %v (kind %d)", size, dst, k)
				typed.NetSend(at, src, size, dst, k)
				bounded.NetSend(at, src, size, dst, k)
			case 1:
				dst, size, src := ip.Addr(in.u32()), int(in.u64()), in.endpoint()
				e.Cat, e.Node, e.Msg = "net.deliver", dst.String(), fmt.Sprintf("%d B from %v", size, src)
				typed.NetDeliver(at, dst, size, src)
				bounded.NetDeliver(at, dst, size, src)
			case 2:
				pipe, id, rate, links := in.pipe(text), in.u64(), in.rate(), int(in.u64())
				e.Node, e.Msg = pipe, fmt.Sprintf("flow %d start %.0f bps over %d link(s)", id, rate, links)
				typed.FlowStart(at, pipe, id, rate, links)
				bounded.FlowStart(at, pipe, id, rate, links)
			case 3:
				pipe, id, old, rate := in.pipe(text), in.u64(), in.rate(), in.rate()
				e.Node, e.Msg = pipe, fmt.Sprintf("flow %d rerate %.0f -> %.0f bps", id, old, rate)
				typed.FlowRerate(at, pipe, id, old, rate)
				bounded.FlowRerate(at, pipe, id, old, rate)
			case 4:
				pipe, id := in.pipe(text), in.u64()
				e.Node, e.Msg = pipe, fmt.Sprintf("flow %d done", id)
				typed.FlowDone(at, pipe, id)
				bounded.FlowDone(at, pipe, id)
			default:
				e.Cat, e.Node = in.slice(text), in.slice(text)
				piece := in.slice(text)
				e.Msg = strings.Repeat(piece, 1+min(int(in.byte())*64, 40000/(len(piece)+1)))
				typed.Add(at, e.Cat, e.Node, "%s", e.Msg)
				bounded.Add(at, e.Cat, e.Node, "%s", e.Msg)
			}
			viaAdd.Add(at, e.Cat, e.Node, "%s", e.Msg)
			want = append(want, e)
		}

		var layout bytes.Buffer
		counts := map[string]uint64{}
		for _, e := range want {
			fmt.Fprintf(&layout, lineFormat, time.Duration(e.At), e.Cat, e.Node, e.Msg)
			counts[e.Cat]++
		}
		for name, l := range map[string]*Log{"typed": typed, "via Add": viaAdd} {
			if got := rendered(t, l); got != layout.String() {
				t.Fatalf("%s log renders differently from fmt:\n%s", name, firstDiff(got, layout.String()))
			}
			if got := l.Events(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s log: Events() = %+v, want %+v", name, got, want)
			}
			for cat, n := range counts {
				if got := l.Count(cat); got != n {
					t.Fatalf("%s log: Count(%q) = %d, want %d", name, cat, got, n)
				}
				if got := len(l.Filter(cat)); uint64(got) != n {
					t.Fatalf("%s log: Filter(%q) has %d events, want %d", name, cat, got, n)
				}
			}
		}
		if got := bounded.Len(); got != min(max, len(want)) {
			t.Fatalf("bounded log of max %d shows %d of %d events", max, got, len(want))
		}
		newest := want[len(want)-bounded.Len():]
		if got := bounded.Events(); !reflect.DeepEqual(got, newest) {
			t.Fatalf("bounded log keeps %+v, want the newest %d: %+v", got, len(newest), newest)
		}
	})
}

// fuzzOps reads FuzzTypedRecords' operands from its input, little
// endian, with zeros once the input runs out.
type fuzzOps struct{ b []byte }

func (in *fuzzOps) next(n int) []byte {
	var pad [8]byte
	k := copy(pad[:n], in.b)
	in.b = in.b[k:]
	return pad[:n]
}

func (in *fuzzOps) byte() byte  { return in.next(1)[0] }
func (in *fuzzOps) u32() uint32 { return binary.LittleEndian.Uint32(in.next(4)) }
func (in *fuzzOps) u64() uint64 { return binary.LittleEndian.Uint64(in.next(8)) }

func (in *fuzzOps) endpoint() ip.Endpoint {
	return ip.Endpoint{Addr: ip.Addr(in.u32()), Port: ip.Port(binary.LittleEndian.Uint16(in.next(2)))}
}

// rate is a whole number under 2^53 for an even selector byte, which
// the integer path stores, and any float64 bits for an odd one.
func (in *fuzzOps) rate() float64 {
	if in.byte()&1 == 0 {
		return float64(in.u64() >> 11)
	}
	return math.Float64frombits(in.u64())
}

// slice is text[i:j] for two indexes the input picks.
func (in *fuzzOps) slice(text string) string {
	i := int(binary.LittleEndian.Uint16(in.next(2))) % (len(text) + 1)
	j := int(binary.LittleEndian.Uint16(in.next(2))) % (len(text) + 1)
	return text[min(i, j):max(i, j)]
}

// pipe is one of four fixed names for an even selector byte, so names
// recur, and a slice of text for an odd one.
func (in *fuzzOps) pipe(text string) string {
	if s := in.byte(); s&1 == 0 {
		return [...]string{"10.0.0.1/up", "10.0.0.2/down", "", "sixteen-runes-µµ"}[s>>1&3]
	}
	return in.slice(text)
}

// TestAppendRate holds the integer fast path of appendRate to the
// strconv form of %.0f it stands in for: ties, the neighbours of ties,
// both sides of 2^53 where the fast path ends, and the values it must
// leave to strconv (negative zero, negatives, infinities, NaN).
func TestAppendRate(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		got := string(appendRate(nil, math.Float64bits(f)))
		if want := fmt.Sprintf("%.0f", f); got != want {
			t.Errorf("appendRate(%v) = %q, want %q", f, got, want)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 0.5, 1.5, 2.5, 3.5, -0.5, -1.5, 0.49999999999999994, 0.5000000000000001,
		math.SmallestNonzeroFloat64, 1 << 52, 1<<52 + 0.5, 1<<53 - 1, 1 << 53, 1<<53 + 2, 1e15, 1e19, 1e300,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		check(f)
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 20000; i++ {
		whole := float64(rng.Int63() >> uint(rng.Intn(63)))
		check(whole)
		check(whole + 0.5)
		check(math.Nextafter(whole+0.5, 0))
		check(math.Nextafter(whole+0.5, math.Inf(1)))
		check(whole * rng.Float64())
		check(-whole * rng.Float64())
		check(math.Float64frombits(rng.Uint64()))
	}
}

// TestAppendDuration holds the renderer's copy of the duration format
// to time.Duration.String, which has no append form.
func TestAppendDuration(t *testing.T) {
	check := func(d time.Duration) {
		t.Helper()
		if got, want := string(appendDuration(nil, d)), d.String(); got != want {
			t.Errorf("appendDuration(%d) = %q, want %q", int64(d), got, want)
		}
	}
	for _, d := range []time.Duration{
		0, 1, -1, 999, 1000, 1001, 1500, 999999, 1e6, 1e6 + 1, 1e9 - 1, 1e9, 1e9 + 1,
		time.Minute - 1, time.Minute, time.Minute + 1, time.Hour - 1, time.Hour, time.Hour + 1,
		time.Hour + 500*time.Millisecond, 100 * time.Hour,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64,
	} {
		check(d)
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 5000; i++ {
		// Every magnitude, and round values as well as ragged ones.
		d := time.Duration(rng.Int63() >> uint(rng.Intn(63)))
		if rng.Intn(2) == 0 {
			unit := time.Duration(math.Pow10(rng.Intn(10)))
			d = d / unit * unit
		}
		check(d)
		check(-d)
	}
}
