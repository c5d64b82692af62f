package bt

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

// Bencode serializes a value into bencoding, BitTorrent's wire encoding:
// integers (i42e), byte strings (4:spam), lists (l...e) and dicts
// (d...e, keys sorted). Supported Go types: int, int64, string, []byte,
// []any, map[string]any. No run encodes anything: Bencode is the
// oracle the tracker's charged sizes are checked against.
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

func TestBencodeScalars(t *testing.T) {
	cases := []struct {
		in   any
		want string
	}{
		{42, "i42e"},
		{int64(-7), "i-7e"},
		{"spam", "4:spam"},
		{[]byte{1, 2, 3}, "3:\x01\x02\x03"},
		{"", "0:"},
	}
	for _, c := range cases {
		got, err := Bencode(c.in)
		if err != nil {
			t.Fatalf("Bencode(%v): %v", c.in, err)
		}
		if string(got) != c.want {
			t.Errorf("Bencode(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestBencodeDictSortsKeys(t *testing.T) {
	got, err := Bencode(map[string]any{"zebra": 1, "apple": 2})
	if err != nil {
		t.Fatal(err)
	}
	want := "d5:applei2e5:zebrai1ee"
	if string(got) != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestBencodeList(t *testing.T) {
	got, err := Bencode([]any{1, "a", []any{2}})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "li1e1:ali2eee" {
		t.Fatalf("got %q", got)
	}
}

func TestBencodeUnsupportedType(t *testing.T) {
	if _, err := Bencode(3.14); err == nil {
		t.Fatal("floats are not bencodable")
	}
}

func TestBdecodeRoundTrip(t *testing.T) {
	orig := map[string]any{
		"interval": int64(1800),
		"peers": []any{
			map[string]any{"ip": "10.0.0.1", "port": int64(6881)},
			map[string]any{"ip": "10.0.0.2", "port": int64(6881)},
		},
		"blob": []byte{0, 255, 10},
	}
	enc, err := Bencode(orig)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Bdecode(enc)
	if err != nil {
		t.Fatal(err)
	}
	dict := dec.(map[string]any)
	if dict["interval"].(int64) != 1800 {
		t.Fatal("interval mismatch")
	}
	peers := dict["peers"].([]any)
	if len(peers) != 2 {
		t.Fatal("peers mismatch")
	}
	p0 := peers[0].(map[string]any)
	if string(p0["ip"].([]byte)) != "10.0.0.1" {
		t.Fatal("peer ip mismatch")
	}
	if !bytes.Equal(dict["blob"].([]byte), []byte{0, 255, 10}) {
		t.Fatal("blob mismatch")
	}
}

func TestBdecodeErrors(t *testing.T) {
	bad := []string{
		"", "i42", "4:spa", "x", "l", "d", "di1ei2ee", "i42etrailing",
		"-1:x", "99:x",
	}
	for _, s := range bad {
		if _, err := Bdecode([]byte(s)); err == nil {
			t.Errorf("Bdecode(%q) should fail", s)
		}
	}
}

func TestBencodePropertyRoundTrip(t *testing.T) {
	f := func(n int64, s []byte) bool {
		enc, err := Bencode(map[string]any{"n": n, "s": s})
		if err != nil {
			return false
		}
		dec, err := Bdecode(enc)
		if err != nil {
			return false
		}
		d := dec.(map[string]any)
		return d["n"].(int64) == n && bytes.Equal(d["s"].([]byte), s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
