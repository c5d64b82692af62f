// Package bt implements the BitTorrent file-distribution system the
// paper studies: metainfo with real SHA-1 piece hashes, a tracker, the
// peer wire protocol, rarest-first piece selection and the tit-for-tat
// choking algorithm, all running over the emulated network.
//
// The implementation follows the BitTorrent 4.x mainline client (the
// one the paper instruments), with documented simplifications: the
// tracker exchange travels over a vnet connection as typed values
// charged at their bencoded length rather than as HTTP, and large-swarm
// runs can use sparse piece storage to avoid materializing gigabytes of
// payload.
package bt

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
)

// Bencode serializes a value into bencoding, BitTorrent's wire encoding:
// integers (i42e), byte strings (4:spam), lists (l...e) and dicts
// (d...e, keys sorted). Supported Go types: int, int64, string, []byte,
// []any, map[string]any.
func Bencode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := bencodeTo(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func bencodeTo(buf *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case int:
		fmt.Fprintf(buf, "i%de", x)
	case int64:
		fmt.Fprintf(buf, "i%de", x)
	case string:
		fmt.Fprintf(buf, "%d:%s", len(x), x)
	case []byte:
		fmt.Fprintf(buf, "%d:", len(x))
		buf.Write(x)
	case []any:
		buf.WriteByte('l')
		for _, e := range x {
			if err := bencodeTo(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte('e')
	case map[string]any:
		buf.WriteByte('d')
		keys := make([]string, 0, len(x))
		//lint:allow maporder collected keys are sorted below, per the bencode canonical form
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(buf, "%d:%s", len(k), k)
			if err := bencodeTo(buf, x[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('e')
	default:
		return fmt.Errorf("bt: cannot bencode %T", v)
	}
	return nil
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
