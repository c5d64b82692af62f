package ip

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"10.0.0.1", 0x0a000001, true},
		{"192.168.38.2", 0xc0a82602, true},
		{"255.255.255.255", 0xffffffff, true},
		{"256.0.0.1", 0, false},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"a.b.c.d", 0, false},
		{"-1.0.0.0", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseAddr(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseAddr(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		a := Addr(raw)
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMustParseAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on bad address")
		}
	}()
	MustParseAddr("not-an-address")
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("10.1.0.0/16")
	if !p.Contains(MustParseAddr("10.1.3.207")) {
		t.Error("10.1.0.0/16 should contain 10.1.3.207")
	}
	if p.Contains(MustParseAddr("10.2.2.117")) {
		t.Error("10.1.0.0/16 should not contain 10.2.2.117")
	}
}

func TestPrefixNormalizesHostBits(t *testing.T) {
	p := MustParsePrefix("10.1.3.207/16")
	if p.Addr() != MustParseAddr("10.1.0.0") {
		t.Errorf("base = %v, want 10.1.0.0", p.Addr())
	}
	if p.String() != "10.1.0.0/16" {
		t.Errorf("String = %q", p.String())
	}
}

func TestPrefixContainsPrefix(t *testing.T) {
	outer := MustParsePrefix("10.1.0.0/16")
	inner := MustParsePrefix("10.1.3.0/24")
	other := MustParsePrefix("10.2.0.0/16")
	if !outer.ContainsPrefix(inner) {
		t.Error("10.1.0.0/16 should contain 10.1.3.0/24")
	}
	if inner.ContainsPrefix(outer) {
		t.Error("/24 cannot contain /16")
	}
	if outer.ContainsPrefix(other) {
		t.Error("disjoint prefixes")
	}
	if !outer.ContainsPrefix(outer) {
		t.Error("a prefix contains itself")
	}
}

func TestPrefixOverlaps(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/8")
	b := MustParsePrefix("10.1.0.0/16")
	c := MustParsePrefix("192.168.38.0/24")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested prefixes overlap")
	}
	if a.Overlaps(c) {
		t.Error("10/8 and 192.168.38/24 are disjoint")
	}
}

func TestPrefixSizeAndNth(t *testing.T) {
	p := MustParsePrefix("10.1.3.0/24")
	if p.Size() != 256 {
		t.Fatalf("Size = %d, want 256", p.Size())
	}
	if p.Nth(207) != MustParseAddr("10.1.3.207") {
		t.Fatalf("Nth(207) = %v", p.Nth(207))
	}
}

func TestPrefixNthPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	MustParsePrefix("10.1.3.0/24").Nth(256)
}

func TestParsePrefixErrors(t *testing.T) {
	for _, s := range []string{"10.0.0.0/33", "10.0.0.0/-1", "10.0.0/8", "x/8"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) should fail", s)
		}
	}
}

func TestParsePrefixBareAddr(t *testing.T) {
	p, err := ParsePrefix("10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Bits() != 32 || p.Addr() != MustParseAddr("10.0.0.1") {
		t.Fatalf("bare addr parsed as %v", p)
	}
}

func TestPrefixContainsProperty(t *testing.T) {
	// Any address constructed by Nth must be contained in its prefix.
	f := func(raw uint32, bitsRaw uint8) bool {
		bits := int(bitsRaw % 33)
		p := NewPrefix(Addr(raw), bits)
		n := uint32(uint64(raw) % p.Size())
		return p.Contains(p.Nth(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroBitsPrefixContainsEverything(t *testing.T) {
	p := NewPrefix(0, 0)
	f := func(raw uint32) bool { return p.Contains(Addr(raw)) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEndpointString(t *testing.T) {
	e := Endpoint{Addr: MustParseAddr("10.0.0.1"), Port: 6881}
	if e.String() != "10.0.0.1:6881" {
		t.Fatalf("String = %q", e.String())
	}
}

// TestFormatMatchesSprintf pins AppendTo, and the String methods built
// on it, to the fmt.Sprintf forms they replaced: golden traces and
// every %v of an endpoint in a protocol log carry these bytes.
func TestFormatMatchesSprintf(t *testing.T) {
	for _, e := range []Endpoint{
		{0, 0},
		{0, 65535},
		{0xffffffff, 0},
		{0xffffffff, 65535},
		{MustParseAddr("10.1.3.207"), 6881},
		{MustParseAddr("100.20.3.0"), 9},
	} {
		a := e.Addr
		wantAddr := fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
		wantEnd := fmt.Sprintf("%s:%d", wantAddr, e.Port)
		if got := a.String(); got != wantAddr {
			t.Errorf("Addr(%#x).String() = %q, want %q", uint32(a), got, wantAddr)
		}
		if got := e.String(); got != wantEnd {
			t.Errorf("Endpoint.String() = %q, want %q", got, wantEnd)
		}
		if got := string(e.AppendTo([]byte("to "))); got != "to "+wantEnd {
			t.Errorf("Endpoint.AppendTo = %q, want %q", got, "to "+wantEnd)
		}
		if got := fmt.Sprintf("%v %v", a, e); got != wantAddr+" "+wantEnd {
			t.Errorf("%%v = %q, want %q", got, wantAddr+" "+wantEnd)
		}
	}
}

func TestAddrIsZero(t *testing.T) {
	if !Addr(0).IsZero() {
		t.Error("0 should be zero")
	}
	if MustParseAddr("10.0.0.1").IsZero() {
		t.Error("10.0.0.1 should not be zero")
	}
}
