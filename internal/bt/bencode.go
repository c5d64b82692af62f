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
