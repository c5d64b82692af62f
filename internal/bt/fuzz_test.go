package bt

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"testing"
)

// FuzzBdecode is the decoder-robustness property: Bdecode must never
// panic on arbitrary bytes, metainfo-shaped or not, and any input it
// accepts must survive an encode/decode round trip unchanged, so
// Bencode and Bdecode stay inverse on everything Bdecode accepts.
func FuzzBdecode(f *testing.F) {
	seeds := []string{
		"i42e",
		"i-1e",
		"4:spam",
		"0:",
		"le",
		"de",
		"l4:spami42ee",
		"d3:cow3:moo4:spaml1:aee",
		"d4:infod6:lengthi16777216e4:name9:paper.bin12:piece lengthi262144eee",
		"d8:intervali1800e5:peersld2:ip9:10.0.0.17:peer id20:aaaaaaaaaaaaaaaaaaaa4:porti6881eeee",
		// Malformed inputs the decoder must reject gracefully.
		"i42",
		"4:spa",
		"l4:spam",
		"d3:cow",
		"d3:cowe",
		"di1e3:mooe",
		"99999999999999999999:x",
		"i999999999999999999999999e",
		"",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Bdecode(data)
		if err != nil {
			return
		}
		enc, err := Bencode(v)
		if err != nil {
			t.Fatalf("decoded value does not re-encode: %v (value %#v)", err, v)
		}
		back, err := Bdecode(enc)
		if err != nil {
			t.Fatalf("re-encoded form does not decode: %v (encoded %q)", err, enc)
		}
		if !reflect.DeepEqual(v, back) {
			t.Fatalf("round trip diverged:\n first %#v\nsecond %#v", v, back)
		}
	})
}

// Bdecode parses one bencoded value. Integers decode as int64, strings
// as []byte, lists as []any and dicts as map[string]any.
func Bdecode(data []byte) (any, error) {
	v, rest, err := bdecode(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("bt: %d trailing bytes after bencoded value", len(rest))
	}
	return v, nil
}

func bdecode(data []byte) (any, []byte, error) {
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("bt: empty bencode input")
	}
	switch {
	case data[0] == 'i':
		end := bytes.IndexByte(data, 'e')
		if end < 0 {
			return nil, nil, fmt.Errorf("bt: unterminated integer")
		}
		n, err := strconv.ParseInt(string(data[1:end]), 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bt: bad integer %q", data[1:end])
		}
		return n, data[end+1:], nil
	case data[0] >= '0' && data[0] <= '9':
		colon := bytes.IndexByte(data, ':')
		if colon < 0 {
			return nil, nil, fmt.Errorf("bt: unterminated string length")
		}
		n, err := strconv.Atoi(string(data[:colon]))
		if err != nil || n < 0 {
			return nil, nil, fmt.Errorf("bt: bad string length %q", data[:colon])
		}
		if len(data) < colon+1+n {
			return nil, nil, fmt.Errorf("bt: string truncated")
		}
		s := make([]byte, n)
		copy(s, data[colon+1:colon+1+n])
		return s, data[colon+1+n:], nil
	case data[0] == 'l':
		rest := data[1:]
		var list []any
		for {
			if len(rest) == 0 {
				return nil, nil, fmt.Errorf("bt: unterminated list")
			}
			if rest[0] == 'e' {
				return list, rest[1:], nil
			}
			var v any
			var err error
			v, rest, err = bdecode(rest)
			if err != nil {
				return nil, nil, err
			}
			list = append(list, v)
		}
	case data[0] == 'd':
		rest := data[1:]
		dict := make(map[string]any)
		for {
			if len(rest) == 0 {
				return nil, nil, fmt.Errorf("bt: unterminated dict")
			}
			if rest[0] == 'e' {
				return dict, rest[1:], nil
			}
			var k, v any
			var err error
			k, rest, err = bdecode(rest)
			if err != nil {
				return nil, nil, err
			}
			kb, ok := k.([]byte)
			if !ok {
				return nil, nil, fmt.Errorf("bt: dict key is not a string")
			}
			v, rest, err = bdecode(rest)
			if err != nil {
				return nil, nil, err
			}
			dict[string(kb)] = v
		}
	default:
		return nil, nil, fmt.Errorf("bt: unexpected byte %q", data[0])
	}
}
