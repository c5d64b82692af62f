// Package ip provides the IPv4-style addressing used by the emulated
// network: 32-bit addresses, CIDR prefixes and address arithmetic.
//
// P2PLab assigns each virtual node an interface-alias IP in a dedicated
// subnet (e.g. 10.0.0.0/8) while physical nodes keep an administration
// address (e.g. 192.168.38.0/24); this package supplies the vocabulary
// for that scheme.
package ip

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is a 32-bit IPv4-style address.
type Addr uint32

// ParseAddr parses dotted-quad notation ("10.1.3.207").
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("ip: invalid address %q", s)
	}
	var a uint32
	for _, part := range parts {
		v, err := strconv.Atoi(part)
		if err != nil || v < 0 || v > 255 {
			return 0, fmt.Errorf("ip: invalid address %q", s)
		}
		a = a<<8 | uint32(v)
	}
	return Addr(a), nil
}

// MustParseAddr is ParseAddr that panics on error; for literals.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String formats the address as a dotted quad.
func (a Addr) String() string {
	var buf [len("255.255.255.255")]byte
	return string(a.AppendTo(buf[:0]))
}

// AppendTo appends the dotted quad to b and returns the extended
// buffer, in the shape of net/netip's AppendTo: the one formatter both
// String methods and the trace renderer use, so an address costs no
// fmt call and, into a buffer with room, no allocation.
func (a Addr) AppendTo(b []byte) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		b = strconv.AppendUint(b, uint64(byte(a>>shift)), 10)
		if shift > 0 {
			b = append(b, '.')
		}
	}
	return b
}

// Add returns the address n positions after a.
func (a Addr) Add(n uint32) Addr { return a + Addr(n) }

// IsZero reports whether the address is the zero value (0.0.0.0),
// conventionally "unbound".
func (a Addr) IsZero() bool { return a == 0 }

// Prefix is a CIDR block: a base address and a mask length.
type Prefix struct {
	addr Addr
	bits int
}

// NewPrefix returns the prefix addr/bits with host bits zeroed.
func NewPrefix(addr Addr, bits int) Prefix {
	if bits < 0 {
		bits = 0
	}
	if bits > 32 {
		bits = 32
	}
	return Prefix{addr: addr & mask(bits), bits: bits}
}

// ParsePrefix parses CIDR notation ("10.1.0.0/16"). A bare address is
// treated as a /32.
func ParsePrefix(s string) (Prefix, error) {
	addrStr, bitsStr, found := strings.Cut(s, "/")
	bits := 32
	if found {
		var err error
		bits, err = strconv.Atoi(bitsStr)
		if err != nil || bits < 0 || bits > 32 {
			return Prefix{}, fmt.Errorf("ip: invalid prefix %q", s)
		}
	}
	a, err := ParseAddr(addrStr)
	if err != nil {
		return Prefix{}, err
	}
	return NewPrefix(a, bits), nil
}

// MustParsePrefix is ParsePrefix that panics on error; for literals.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func mask(bits int) Addr {
	if bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - bits))
}

// Addr returns the base address of the prefix.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the mask length.
func (p Prefix) Bits() int { return p.bits }

// Contains reports whether a falls inside the prefix.
func (p Prefix) Contains(a Addr) bool { return a&mask(p.bits) == p.addr }

// ContainsPrefix reports whether q is entirely inside p.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.bits >= p.bits && p.Contains(q.addr)
}

// Overlaps reports whether the two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.ContainsPrefix(q) || q.ContainsPrefix(p)
}

// Size returns the number of addresses in the prefix.
func (p Prefix) Size() uint64 { return 1 << (32 - p.bits) }

// Nth returns the n-th address of the prefix (0 = base). It panics if n
// exceeds the prefix size.
func (p Prefix) Nth(n uint32) Addr {
	if uint64(n) >= p.Size() {
		panic(fmt.Sprintf("ip: index %d out of prefix %v", n, p))
	}
	return p.addr.Add(n)
}

// String formats the prefix in CIDR notation.
func (p Prefix) String() string { return fmt.Sprintf("%v/%d", p.addr, p.bits) }

// Port is a 16-bit transport port.
type Port uint16

// Endpoint is an (address, port) pair, the identity of a socket.
type Endpoint struct {
	Addr Addr
	Port Port
}

// String formats the endpoint as "addr:port".
func (e Endpoint) String() string {
	var buf [len("255.255.255.255:65535")]byte
	return string(e.AppendTo(buf[:0]))
}

// AppendTo appends "addr:port" to b and returns the extended buffer.
func (e Endpoint) AppendTo(b []byte) []byte {
	b = append(e.Addr.AppendTo(b), ':')
	return strconv.AppendUint(b, uint64(e.Port), 10)
}
