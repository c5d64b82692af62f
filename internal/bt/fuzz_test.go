package bt

import (
	"reflect"
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
