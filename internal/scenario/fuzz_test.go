package scenario

import (
	"encoding/json"
	"testing"
)

// FuzzLoadSpec is the loader-robustness property: Load followed by
// WithDefaults and Validate must never panic on arbitrary bytes (the
// spec file is user input via `p2plab run -spec`), any spec that
// validates must survive a marshal/load round trip still valid, and a
// small one must compile and assemble to a platform or an error —
// never a panic — without running a workload.
func FuzzLoadSpec(f *testing.F) {
	// The whole committed corpus seeds the fuzzer with realistic specs.
	for _, sp := range Corpus() {
		data, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x"}`))
	f.Add([]byte(`{"name":"x","groups":[{"name":"g","class":"dsl","nodes":-1}]}`))
	f.Add([]byte(`{"name":"x","horizon":"-5s"}`))
	f.Add([]byte(`{"name":"x","timeline":[{"at":"1s","action":"partition"}]}`))
	f.Add([]byte(`{"name":"x","workload":{"kind":"swarm","seeders":999}}`))
	f.Add([]byte(`{"name":"x","folding":32,"groups":[{"name":"g","class":"dsl","nodes":70}],"workload":{"kind":"swarm"}}`))
	f.Add([]byte(`{"name":"x","folding":-1,"groups":[{"name":"g","class":"dsl","nodes":4}],"workload":{"kind":"gossip"}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"name":"x","classifier":"indexed","filler_rules":100,"groups":[{"name":"g","class":"lan","nodes":2}],"workload":{"kind":"ping"}}`))
	// A /30 holds three hosts: addressing starts at offset 1.
	f.Add([]byte(`{"name":"x","groups":[{"name":"g","class":"dsl","nodes":4,"prefix":"10.0.0.0/30"}],"workload":{"kind":"gossip"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Load(data)
		if err != nil {
			return
		}
		d := sp.WithDefaults()
		if err := d.Validate(); err != nil {
			return
		}
		out, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("valid spec does not marshal: %v", err)
		}
		back, err := Load(out)
		if err != nil {
			t.Fatalf("marshalled spec does not load: %v\n%s", err, out)
		}
		if err := back.WithDefaults().Validate(); err != nil {
			t.Fatalf("valid spec became invalid after round trip: %v\n%s", err, out)
		}
		if d.TotalNodes() > 256 {
			return
		}
		if top, cfg, err := d.compile(); err == nil {
			_, _ = Assemble(d.Seed, top, cfg, d.Folding)
		}
	})
}
