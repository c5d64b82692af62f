// Package trace records structured experiment events on the virtual
// timeline — the observability side of an experimentation platform
// (the paper instruments its BitTorrent client by time-stamping its
// output; here the platform itself can time-stamp everything).
//
// A Log stores every record as a few bytes in pointer-free chunks and
// formats nothing until Render, Events or Filter asks for
// text: the five formats that are nearly every event of a run
// (net.send, net.deliver and the three net.flow lines) have a typed
// entry point each and cost no fmt call, no boxed operand and no string
// per event; everything else goes through Add and is the "text" kind of
// the same byte stream. DESIGN.md decision 15 has the layout and the
// numbers.
package trace

import (
	"encoding/binary"
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

// kind says how a record's operands are stored and render.
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

// A stored record is its kind byte, the zigzag varint of its instant
// less the previous record's in the same chunk (the first record's
// less zero, so a chunk decodes alone and an instant may go backwards),
// then its operands:
//
//	net.send     addr 4 B, size zigzag, endpoint 6 B, msg kind zigzag
//	net.deliver  addr 4 B, size zigzag, endpoint 6 B
//	flow start   pipe uvarint, id uvarint, rate, links zigzag
//	flow rerate  pipe uvarint, id uvarint, rate, rate
//	flow done    pipe uvarint, id uvarint
//	text         len(cat), len(node), len(msg) uvarints, then the three
//
// An address is four bytes and an endpoint six (address, port), little
// endian: on a corpus pass that is 4.00 and 6.00 B against 4.02 and
// 7.00 B as uvarints. A pipe is an index into the log's name table,
// because a chunk holds no pointer and so no string. A rate is
// appendRateBits'. maxTyped bounds every typed record — a rerate's 1 +
// 10 + 10 + 10 + 9 + 9 — and a text record less its three strings.
const maxTyped = 49

// chunkBytes is the byte capacity of an unbounded log's chunk, which
// takes records until the next one might not fit; a record longer than
// that gets a chunk of its own size. Measured on corpus-golden
// alloc_mb (48 logs, 38.5 MB of chunks): see DESIGN.md decision 15.
const chunkBytes = 16 << 10

// chunkSize is the most records a bounded log's chunk holds: the unit
// it drops, min(chunkSize, ⌈max/2⌉) records, which is what keeps its
// retained window. recordBytes sizes such a chunk's bytes, an upper
// corpus average; a chunk that outgrows them grows.
const (
	chunkSize   = 1024
	recordBytes = 24
)

// blockSize is how much rendered text Render hands its writer at a
// time. Nothing a whole run shows depends on it: corpus-golden alloc_mb
// is 694.69 MB at 4, 16 and 64 KiB (into a bytes.Buffer the block
// stands in for the buffer's own first doublings), and rendering
// 200 000 records takes 44–50 ms into io.Discard, 55–65 into SHA-256
// and 54–74 into a bytes.Buffer at 1, 4, 16 and 64 KiB alike. 16 KiB
// is a block that stays in L1 beside the chunk being read.
const blockSize = 16 << 10

// chunk is a run of encoded records. Its bytes hold no pointer, so the
// collector never scans them.
type chunk struct {
	b []byte
	n int // records in b
}

// Log is an in-memory event recorder, optionally bounded. A zero Log is
// unusable; create one with New. Methods are safe from simulated
// goroutines and kernel callbacks (the sequential kernel serializes
// them).
type Log struct {
	max        int
	chunkCap   int // records per chunk: unlimited, or chunkSize or less under a max
	chunkBytes int // a new chunk's byte capacity
	chunks     []chunk
	at         sim.Time // the last chunk's newest instant
	n          int      // retained records
	names      []string // interned pipe names
	nameIdx    map[string]uint64
	scratch    []byte // Add's message, formatted
	kinds      [numKinds]uint64
	counts     map[string]uint64 // text records by category
}

// New returns a log keeping at most max events (older events are
// discarded first, a chunk at a time, so between max/2 and max of the
// newest are retained; counters keep counting). max <= 0 means
// unbounded.
func New(max int) *Log {
	l := &Log{max: max, chunkCap: math.MaxInt, chunkBytes: chunkBytes,
		nameIdx: make(map[string]uint64), counts: make(map[string]uint64)}
	if max > 0 {
		l.chunkCap = min(chunkSize, (max+1)/2)
		l.chunkBytes = l.chunkCap * recordBytes
	}
	return l
}

// begin starts a record of at most size bytes and returns the last
// chunk's bytes with its kind and instant appended; the caller appends
// the operands and hands the bytes to end. A full bounded log releases
// its oldest chunk first.
func (l *Log) begin(k kind, at sim.Time, size int) []byte {
	l.kinds[k]++
	if l.max > 0 && l.n >= l.max {
		l.n -= l.chunks[0].n
		l.chunks[0] = chunk{}
		l.chunks = l.chunks[1:]
	}
	last := len(l.chunks) - 1
	if last < 0 || l.chunks[last].n == l.chunkCap ||
		l.max <= 0 && len(l.chunks[last].b)+size > cap(l.chunks[last].b) {
		l.chunks = append(l.chunks, chunk{b: make([]byte, 0, max(l.chunkBytes, size))})
		l.at = 0
		last++
	}
	c := &l.chunks[last]
	c.n++
	l.n++
	b := binary.AppendVarint(append(c.b, byte(k)), int64(at-l.at))
	l.at = at
	return b
}

func (l *Log) end(b []byte) { l.chunks[len(l.chunks)-1].b = b }

// name returns pipe's index in the name table, interning it on first
// use.
func (l *Log) name(pipe string) uint64 {
	i, ok := l.nameIdx[pipe]
	if !ok {
		i = uint64(len(l.names))
		l.names = append(l.names, pipe)
		l.nameIdx[pipe] = i
	}
	return i
}

// Add records an event whose message the caller formats. It is the
// path of every event that is rare in a run; the five that are not
// have the typed entry points below.
func (l *Log) Add(at sim.Time, cat, node, format string, args ...any) {
	l.counts[cat]++
	l.scratch = fmt.Appendf(l.scratch[:0], format, args...)
	msg := l.scratch
	b := l.begin(kindText, at, maxTyped+len(cat)+len(node)+len(msg))
	b = binary.AppendUvarint(b, uint64(len(cat)))
	b = binary.AppendUvarint(b, uint64(len(node)))
	b = binary.AppendUvarint(b, uint64(len(msg)))
	l.end(append(append(append(b, cat...), node...), msg...))
}

// NetSend records "net.send" on src: "<size> B to <dst> (kind <k>)".
func (l *Log) NetSend(at sim.Time, src ip.Addr, size int, dst ip.Endpoint, msgKind int) {
	b := l.begin(kindSend, at, maxTyped)
	b = binary.AppendVarint(binary.LittleEndian.AppendUint32(b, uint32(src)), int64(size))
	l.end(binary.AppendVarint(appendEndpoint(b, dst), int64(msgKind)))
}

// NetDeliver records "net.deliver" on dst: "<size> B from <src>".
func (l *Log) NetDeliver(at sim.Time, dst ip.Addr, size int, src ip.Endpoint) {
	b := l.begin(kindDeliver, at, maxTyped)
	b = binary.AppendVarint(binary.LittleEndian.AppendUint32(b, uint32(dst)), int64(size))
	l.end(appendEndpoint(b, src))
}

// FlowStart records "net.flow" on pipe: "flow <id> start <rate> bps
// over <links> link(s)".
func (l *Log) FlowStart(at sim.Time, pipe string, id uint64, rate float64, links int) {
	b := l.begin(kindFlowStart, at, maxTyped)
	b = binary.AppendUvarint(binary.AppendUvarint(b, l.name(pipe)), id)
	l.end(binary.AppendVarint(appendRateBits(b, rate), int64(links)))
}

// FlowRerate records "net.flow" on pipe: "flow <id> rerate <old> ->
// <new> bps".
func (l *Log) FlowRerate(at sim.Time, pipe string, id uint64, old, new float64) {
	b := l.begin(kindFlowRerate, at, maxTyped)
	b = binary.AppendUvarint(binary.AppendUvarint(b, l.name(pipe)), id)
	l.end(appendRateBits(appendRateBits(b, old), new))
}

// FlowDone records "net.flow" on pipe: "flow <id> done".
func (l *Log) FlowDone(at sim.Time, pipe string, id uint64) {
	b := l.begin(kindFlowDone, at, maxTyped)
	l.end(binary.AppendUvarint(binary.AppendUvarint(b, l.name(pipe)), id))
}

func appendEndpoint(b []byte, e ip.Endpoint) []byte {
	return binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint32(b, uint32(e.Addr)), uint16(e.Port))
}

// appendRateBits stores a rate bit-exact: a whole number in [0, 2^53)
// as the uvarint 2n, anything else — a fraction, −0, a negative, an
// infinity, a NaN with its payload — as the byte 1 and its eight bytes.
// A fair share is rarely whole, so most rates take the nine.
func appendRateBits(b []byte, f float64) []byte {
	if f >= 0 && f < 1<<53 && !math.Signbit(f) && f == math.Trunc(f) {
		return binary.AppendUvarint(b, uint64(f)<<1)
	}
	return binary.LittleEndian.AppendUint64(append(b, 1), math.Float64bits(f))
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
	return l.collect(func(r *record) bool { return r.inCat(cat) })
}

func (l *Log) collect(keep func(*record) bool) []Event {
	var out []Event
	var buf []byte
	for r := range l.records {
		if !keep(r) {
			continue
		}
		cat := kindCat[r.kind]
		if r.kind == kindText {
			cat = string(r.text[:r.a])
		}
		buf = r.appendNode(buf[:0])
		node := string(buf)
		buf = r.appendMsg(buf[:0])
		out = append(out, Event{At: r.at, Cat: cat, Node: node, Msg: string(buf)})
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
	// Instants repeat — a solve re-rates its flows at one instant, and
	// 69 % of a corpus pass' records share the instant of the one before
	// — so a run of them formats its padded instant once.
	var stampBuf [40]byte
	stamp, stampAt := stampBuf[:0], sim.Time(0)
	for r := range l.records {
		if len(buf) > blockSize-lineSlack {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		if len(stamp) == 0 || r.at != stampAt {
			stamp, stampAt = appendStamp(stamp[:0], r.at), r.at
		}
		buf = r.appendLine(buf, stamp)
	}
	_, err := w.Write(buf)
	return err
}

// records yields the retained records in order, each decoded into the
// same record.
func (l *Log) records(yield func(*record) bool) {
	var r record
	for _, c := range l.chunks {
		d := reader{b: c.b, names: l.names}
		for len(d.b) > 0 {
			d.next(&r)
			if !yield(&r) {
				return
			}
		}
	}
}

// record is one stored event, decoded. The node is addr for the net
// kinds and name for the flow kinds; a text record's category, node and
// message lie back to back in text, a and b being the lengths of the
// first two, and text points into the chunk.
type record struct {
	at      sim.Time
	kind    kind
	addr    ip.Addr
	ep      ip.Endpoint
	a, b, c uint64
	name    string
	text    []byte
}

// reader decodes one chunk's records in order.
type reader struct {
	b     []byte
	at    sim.Time // the previous record's instant
	names []string
}

// uvarint decodes the uvarint at the head of b and returns the rest. It
// is binary.Uvarint without the overflow checks, which a stream this
// package wrote never needs, and so small enough to inline into next:
// a record holds two to six of them.
func uvarint(b []byte) (v uint64, rest []byte) {
	for i, c := range b {
		if c < 0x80 {
			return v | uint64(c)<<(7*i), b[i+1:]
		}
		v |= uint64(c&0x7f) << (7 * i)
	}
	return v, nil
}

// varint undoes binary.AppendVarint's zigzag.
func varint(b []byte) (int64, []byte) {
	u, b := uvarint(b)
	return int64(u>>1) ^ -int64(u&1), b
}

func endpoint(b []byte) ip.Endpoint {
	return ip.Endpoint{Addr: ip.Addr(binary.LittleEndian.Uint32(b)), Port: ip.Port(binary.LittleEndian.Uint16(b[4:]))}
}

// rate reads what appendRateBits wrote and returns the float64's bits.
func rate(b []byte) (uint64, []byte) {
	v, b := uvarint(b)
	if v&1 == 0 {
		return math.Float64bits(float64(v >> 1)), b
	}
	return binary.LittleEndian.Uint64(b), b[8:]
}

// next decodes the record at the head of d.b into r.
func (d *reader) next(r *record) {
	b := d.b
	r.kind = kind(b[0])
	delta, b := varint(b[1:])
	d.at += sim.Time(delta)
	r.at = d.at
	switch r.kind {
	case kindSend, kindDeliver:
		r.addr = ip.Addr(binary.LittleEndian.Uint32(b))
		var size int64
		size, b = varint(b[4:])
		r.a = uint64(size)
		r.ep = endpoint(b)
		b = b[6:]
		if r.kind == kindSend {
			var k int64
			k, b = varint(b)
			r.c = uint64(k)
		}
	case kindFlowStart, kindFlowRerate, kindFlowDone:
		var i uint64
		i, b = uvarint(b)
		r.name = d.names[i]
		r.a, b = uvarint(b)
		switch r.kind {
		case kindFlowStart:
			r.b, b = rate(b)
			var links int64
			links, b = varint(b)
			r.c = uint64(links)
		case kindFlowRerate:
			r.b, b = rate(b)
			r.c, b = rate(b)
		}
	case kindText:
		var cat, node, msg uint64
		cat, b = uvarint(b)
		node, b = uvarint(b)
		msg, b = uvarint(b)
		n := cat + node + msg
		r.a, r.b, r.text = cat, node, b[:n:n]
		b = b[n:]
	}
	d.b = b
}

func (r *record) inCat(cat string) bool {
	if r.kind == kindText {
		return string(r.text[:r.a]) == cat
	}
	return kindCat[r.kind] == cat
}

func (r *record) appendCat(b []byte) []byte {
	if r.kind == kindText {
		return append(b, r.text[:r.a]...)
	}
	return append(b, kindCat[r.kind]...)
}

func (r *record) appendNode(b []byte) []byte {
	switch r.kind {
	case kindText:
		return append(b, r.text[r.a:r.a+r.b]...)
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
		b = r.ep.AppendTo(b)
		b = append(b, " (kind "...)
		b = strconv.AppendInt(b, int64(r.c), 10)
		return append(b, ')')
	case kindDeliver: // "%d B from %v"
		b = strconv.AppendInt(b, int64(r.a), 10)
		b = append(b, " B from "...)
		return r.ep.AppendTo(b)
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
	return append(b, r.text[r.a+r.b:]...)
}

// appendStamp appends the start of an instant's Render lines: the
// instant right-aligned in 12 runes, and two spaces. fmt pads %12s and
// %-12s by runes, not bytes, and a sub-millisecond instant ends in
// "µs" — two bytes, one rune — so every width here is a rune count.
func appendStamp(b []byte, at sim.Time) []byte {
	var tmp [32]byte // the longest duration, math.MinInt64, is 25 bytes
	d := appendDuration(tmp[:0], time.Duration(at))
	b = appendSpaces(b, 12-utf8.RuneCount(d))
	return append(append(b, d...), ' ', ' ')
}

// appendLine appends the record's Render line after stamp, its
// instant's appendStamp.
func (r *record) appendLine(b, stamp []byte) []byte {
	b = append(b, stamp...)
	start := len(b)
	b = r.appendCat(b)
	b = appendSpaces(b, 12-utf8.RuneCount(b[start:]))
	b = append(b, ' ')
	start = len(b)
	b = r.appendNode(b)
	b = appendSpaces(b, 16-utf8.RuneCount(b[start:]))
	b = append(b, ' ')
	b = r.appendMsg(b)
	return append(b, '\n')
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
