// Package trace records structured experiment events on the virtual
// timeline — the observability side of an experimentation platform
// (the paper instruments its BitTorrent client by time-stamping its
// output; here the platform itself can time-stamp everything).
//
// A Log stores compact typed records in fixed-size chunks and formats
// nothing until Render, Events, Filter or Between asks for text: the
// five formats that are nearly every event of a run (net.send,
// net.deliver and the three net.flow lines) have a typed entry point
// each and cost no fmt call, no boxed operand and no string per event;
// everything else goes through Add and is the "text" kind of the same
// record stream. DESIGN.md decision 15 has the layout and the numbers.
package trace

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/ip"
	"repro/internal/sim"
)

// Event is one time-stamped record, rendered.
type Event struct {
	At   sim.Time
	Cat  string // category: "net.send", "bt.piece", "chord.lookup", ...
	Node string // originating node (address or name)
	Msg  string
}

// kind says how a record's operands render.
type kind uint8

const (
	kindText    kind = iota // Add: the message was formatted by the caller's verbs
	kindSend                // NetSend
	kindDeliver             // NetDeliver
	kindFlowStart
	kindFlowRerate
	kindFlowDone
	numKinds
)

// kindCat is the category each typed kind renders and counts under.
var kindCat = [numKinds]string{
	kindSend:       "net.send",
	kindDeliver:    "net.deliver",
	kindFlowStart:  "net.flow",
	kindFlowRerate: "net.flow",
	kindFlowDone:   "net.flow",
}

// record is one stored event, 56 bytes: 522 k of them make a corpus
// pass, so every 8 bytes here is 4 MB there. The node is addr for the
// net kinds and name — a pipe name that already exists, never built for
// the trace — for the flow kinds. A text record keeps its category,
// node and message back to back in name, a and b being the lengths of
// the first two, so the cold path needs no second shape.
type record struct {
	at      sim.Time
	name    string
	a, b, c uint64
	addr    ip.Addr
	kind    kind
}

// chunkSize is the records per chunk of an unbounded log. A chunk is
// allocated once and never regrown or copied, so a log of n events
// allocates n records and at most one chunk of slack, where an appended
// slice allocated five times its final size. Measured on corpus-golden
// alloc_mb (48 logs): 256 → 710.7 MB, 512 → 710.9, 1024 → 694.7,
// 2048 → 695.8, 4096 → 698.0. Under 32 KiB a chunk is a small object
// and the runtime's 8-byte header pushes n × 56 B into the next size
// class (14 336 → 16 384); from 1 024 up it is whole pages — 1 024 ×
// 56 B is exactly seven — and only the tail slack grows.
const chunkSize = 1024

// blockSize is how much rendered text Render hands its writer at a
// time. Nothing a whole run shows depends on it: corpus-golden alloc_mb
// is 694.69 MB at 4, 16 and 64 KiB (into a bytes.Buffer the block
// stands in for the buffer's own first doublings), and rendering
// 200 000 records takes 44–50 ms into io.Discard, 55–65 into SHA-256
// and 54–74 into a bytes.Buffer at 1, 4, 16 and 64 KiB alike. 16 KiB
// is a block that stays in L1 beside the chunk being read.
const blockSize = 16 << 10

// Log is an in-memory event recorder, optionally bounded. A zero Log is
// unusable; create one with New. Methods are safe from simulated
// goroutines and kernel callbacks (the sequential kernel serializes
// them).
type Log struct {
	max      int
	chunkCap int        // records per chunk: chunkSize, or less under a small max
	chunks   [][]record // all but the last are full
	n        int        // retained records
	kinds    [numKinds]uint64
	counts   map[string]uint64 // text records by category
}

// New returns a log keeping at most max events (older events are
// discarded first, a chunk at a time, so between max/2 and max of the
// newest are retained; counters keep counting). max <= 0 means
// unbounded.
func New(max int) *Log {
	l := &Log{max: max, chunkCap: chunkSize, counts: make(map[string]uint64)}
	if max > 0 && max/2 < chunkSize {
		l.chunkCap = (max + 1) / 2
	}
	return l
}

// slot returns the next record to fill, releasing the oldest chunk of a
// full bounded log first.
func (l *Log) slot(k kind) *record {
	l.kinds[k]++
	if l.max > 0 && l.n >= l.max {
		l.n -= len(l.chunks[0])
		l.chunks[0] = nil
		l.chunks = l.chunks[1:]
	}
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last]) == l.chunkCap {
		l.chunks = append(l.chunks, make([]record, 0, l.chunkCap))
		last++
	}
	c := l.chunks[last]
	l.chunks[last] = c[:len(c)+1]
	l.n++
	return &l.chunks[last][len(c)]
}

// Add records an event whose message the caller formats. It is the
// path of every event that is rare in a run; the five that are not
// have the typed entry points below.
func (l *Log) Add(at sim.Time, cat, node, format string, args ...any) {
	l.counts[cat]++
	text := append(append(make([]byte, 0, 96), cat...), node...)
	text = fmt.Appendf(text, format, args...)
	*l.slot(kindText) = record{at: at, kind: kindText, name: string(text), a: uint64(len(cat)), b: uint64(len(node))}
}

// NetSend records "net.send" on src: "<size> B to <dst> (kind <k>)".
func (l *Log) NetSend(at sim.Time, src ip.Addr, size int, dst ip.Endpoint, msgKind int) {
	*l.slot(kindSend) = record{at: at, kind: kindSend, addr: src, a: uint64(size), b: packEndpoint(dst), c: uint64(msgKind)}
}

// NetDeliver records "net.deliver" on dst: "<size> B from <src>".
func (l *Log) NetDeliver(at sim.Time, dst ip.Addr, size int, src ip.Endpoint) {
	*l.slot(kindDeliver) = record{at: at, kind: kindDeliver, addr: dst, a: uint64(size), b: packEndpoint(src)}
}

// FlowStart records "net.flow" on pipe: "flow <id> start <rate> bps
// over <links> link(s)".
func (l *Log) FlowStart(at sim.Time, pipe string, id uint64, rate float64, links int) {
	*l.slot(kindFlowStart) = record{at: at, kind: kindFlowStart, name: pipe, a: id, b: math.Float64bits(rate), c: uint64(links)}
}

// FlowRerate records "net.flow" on pipe: "flow <id> rerate <old> ->
// <new> bps".
func (l *Log) FlowRerate(at sim.Time, pipe string, id uint64, old, new float64) {
	*l.slot(kindFlowRerate) = record{at: at, kind: kindFlowRerate, name: pipe, a: id, b: math.Float64bits(old), c: math.Float64bits(new)}
}

// FlowDone records "net.flow" on pipe: "flow <id> done".
func (l *Log) FlowDone(at sim.Time, pipe string, id uint64) {
	*l.slot(kindFlowDone) = record{at: at, kind: kindFlowDone, name: pipe, a: id}
}

// Len returns the number of retained events.
func (l *Log) Len() int { return l.n }

// Count returns how many events of a category were ever recorded
// (including discarded ones).
func (l *Log) Count(cat string) uint64 {
	n := l.counts[cat]
	for k := kindText + 1; k < numKinds; k++ {
		if kindCat[k] == cat {
			n += l.kinds[k]
		}
	}
	return n
}

// Events returns the retained events in order, rendered into a fresh
// slice.
func (l *Log) Events() []Event {
	return l.collect(func(*record) bool { return true })
}

// Filter returns retained events of one category.
func (l *Log) Filter(cat string) []Event {
	return l.collect(func(r *record) bool { return r.cat() == cat })
}

// Between returns retained events within [from, to).
func (l *Log) Between(from, to sim.Time) []Event {
	return l.collect(func(r *record) bool { return r.at >= from && r.at < to })
}

func (l *Log) collect(keep func(*record) bool) []Event {
	var out []Event
	var buf []byte
	for _, c := range l.chunks {
		for i := range c {
			r := &c[i]
			if !keep(r) {
				continue
			}
			buf = r.appendNode(buf[:0])
			node := string(buf)
			buf = r.appendMsg(buf[:0])
			out = append(out, Event{At: r.at, Cat: r.cat(), Node: node, Msg: string(buf)})
		}
	}
	return out
}

// Render writes the retained events as a readable timeline, one line
// each in the layout "%12s  %-12s %-16s %s\n" of instant, category,
// node and message. The lines are appended into one block buffer and
// written a block at a time; nothing here calls fmt, and the golden
// digests pin the bytes.
func (l *Log) Render(w io.Writer) error {
	// A typed line is under 128 bytes, so a block with lineSlack left
	// takes the next line without growing; a longer text line grows the
	// buffer once and the larger one is kept. Flushing before the line
	// that might not fit, not after the one that did not, keeps every
	// write within blockSize: a bytes.Buffer sink then doubles from a
	// power of two, 11 MB a corpus pass less than from 16 KiB and a bit.
	const lineSlack = 256
	buf := make([]byte, 0, blockSize)
	for _, c := range l.chunks {
		for i := range c {
			if len(buf) > blockSize-lineSlack {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
			buf = c[i].appendLine(buf)
		}
	}
	_, err := w.Write(buf)
	return err
}

func (r *record) cat() string {
	if r.kind == kindText {
		return r.name[:r.a]
	}
	return kindCat[r.kind]
}

func (r *record) appendNode(b []byte) []byte {
	switch r.kind {
	case kindText:
		return append(b, r.name[r.a:r.a+r.b]...)
	case kindSend, kindDeliver:
		return r.addr.AppendTo(b)
	}
	return append(b, r.name...)
}

func (r *record) appendMsg(b []byte) []byte {
	switch r.kind {
	case kindSend: // "%d B to %v (kind %d)"
		b = strconv.AppendInt(b, int64(r.a), 10)
		b = append(b, " B to "...)
		b = unpackEndpoint(r.b).AppendTo(b)
		b = append(b, " (kind "...)
		b = strconv.AppendInt(b, int64(r.c), 10)
		return append(b, ')')
	case kindDeliver: // "%d B from %v"
		b = strconv.AppendInt(b, int64(r.a), 10)
		b = append(b, " B from "...)
		return unpackEndpoint(r.b).AppendTo(b)
	case kindFlowStart: // "flow %d start %.0f bps over %d link(s)"
		b = append(b, "flow "...)
		b = strconv.AppendUint(b, r.a, 10)
		b = append(b, " start "...)
		b = appendRate(b, r.b)
		b = append(b, " bps over "...)
		b = strconv.AppendInt(b, int64(r.c), 10)
		return append(b, " link(s)"...)
	case kindFlowRerate: // "flow %d rerate %.0f -> %.0f bps"
		b = append(b, "flow "...)
		b = strconv.AppendUint(b, r.a, 10)
		b = append(b, " rerate "...)
		b = appendRate(b, r.b)
		b = append(b, " -> "...)
		b = appendRate(b, r.c)
		return append(b, " bps"...)
	case kindFlowDone: // "flow %d done"
		b = append(b, "flow "...)
		b = strconv.AppendUint(b, r.a, 10)
		return append(b, " done"...)
	}
	return append(b, r.name[r.a+r.b:]...)
}

// appendLine appends the record's Render line. fmt pads %12s and %-12s
// by runes, not bytes, and a sub-millisecond instant ends in "µs" — two
// bytes, one rune — so every width here is a rune count.
func (r *record) appendLine(b []byte) []byte {
	var tmp [32]byte // the longest duration, math.MinInt64, is 25 bytes
	at := appendDuration(tmp[:0], time.Duration(r.at))
	b = appendSpaces(b, 12-utf8.RuneCount(at))
	b = append(b, at...)
	b = append(b, ' ', ' ')
	start := len(b)
	b = append(b, r.cat()...)
	b = appendSpaces(b, 12-utf8.RuneCount(b[start:]))
	b = append(b, ' ')
	start = len(b)
	b = r.appendNode(b)
	b = appendSpaces(b, 16-utf8.RuneCount(b[start:]))
	b = append(b, ' ')
	b = r.appendMsg(b)
	return append(b, '\n')
}

// An endpoint rides in one operand: address above, port below.
func packEndpoint(e ip.Endpoint) uint64 { return uint64(e.Addr)<<16 | uint64(e.Port) }

func unpackEndpoint(v uint64) ip.Endpoint {
	return ip.Endpoint{Addr: ip.Addr(v >> 16), Port: ip.Port(v)}
}

func appendSpaces(b []byte, n int) []byte {
	for ; n > 0; n-- {
		b = append(b, ' ')
	}
	return b
}

// appendRate appends a float64 operand as fmt's %.0f does. strconv
// formats 'f' at a fixed precision through its arbitrary-precision
// decimal — a third of Render's time on the corpus, two rates to a
// rerate line — but below 2^53 the integer and fractional parts of a
// float64 are exact float64s themselves, so rounding half to even on
// them is the same correctly rounded result. render_test.go holds the
// two together.
func appendRate(b []byte, bits uint64) []byte {
	f := math.Float64frombits(bits)
	if !math.Signbit(f) && f < 1<<53 {
		n := uint64(f)
		if frac := f - float64(n); frac > 0.5 || frac == 0.5 && n&1 == 1 {
			n++
		}
		return strconv.AppendUint(b, n, 10)
	}
	return strconv.AppendFloat(b, f, 'f', 0, 64)
}

// appendDuration appends d exactly as time.Duration.String formats it
// ("0s", "1.5µs", "59.999999999s", "1h0m0.5s"); the standard library
// has no append form and String allocates. duration_test.go compares
// the two.
func appendDuration(b []byte, d time.Duration) []byte {
	u := uint64(d)
	if d < 0 {
		u = -u
		b = append(b, '-')
	}
	switch {
	case u == 0:
		return append(b, "0s"...)
	case u < uint64(time.Microsecond):
		return append(strconv.AppendUint(b, u, 10), "ns"...)
	case u < uint64(time.Millisecond):
		return append(appendFraction(b, u, uint64(time.Microsecond)), "µs"...)
	case u < uint64(time.Second):
		return append(appendFraction(b, u, uint64(time.Millisecond)), "ms"...)
	}
	if h := u / uint64(time.Hour); h > 0 {
		b = append(strconv.AppendUint(b, h, 10), 'h')
	}
	if u >= uint64(time.Minute) {
		b = append(strconv.AppendUint(b, u%uint64(time.Hour)/uint64(time.Minute), 10), 'm')
	}
	return append(appendFraction(b, u%uint64(time.Minute), uint64(time.Second)), 's')
}

// appendFraction appends v/unit in decimal with the fraction's trailing
// zeros, and a bare point, left off; unit is a power of ten.
func appendFraction(b []byte, v, unit uint64) []byte {
	b = strconv.AppendUint(b, v/unit, 10)
	frac := v % unit
	if frac == 0 {
		return b
	}
	b = append(b, '.')
	for frac != 0 {
		unit /= 10
		b = append(b, byte('0'+frac/unit))
		frac %= unit
	}
	return b
}
