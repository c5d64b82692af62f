package scenario

import (
	"encoding/json"
	"math/rand"
	"slices"
	"testing"
)

// FuzzLoadSpec is the loader-robustness property: Load followed by
// WithDefaults and Validate must never panic on arbitrary bytes (the
// spec file is user input via `p2plab run -spec`), any spec that
// validates must survive a marshal/load round trip still valid, and a
// small one must compile and assemble to a platform without error,
// with a swarm kind's tracker and web-seed hosts registered beside its
// groups: Validate runs the same topology build and checks those
// addresses, so what it accepts builds.
func FuzzLoadSpec(f *testing.F) {
	// The whole committed corpus seeds the fuzzer with realistic specs.
	for _, sp := range Corpus() {
		data, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Generated specs set knob and event-field combinations the corpus
	// does not.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		data, err := json.Marshal(genSpec(rng, 64))
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
	// Groups are disjoint: a pinned prefix inside another's, pinned or
	// auto-assigned (b's is 10.2.0.0/16), is refused.
	f.Add([]byte(`{"name":"x","groups":[{"name":"a","class":"dsl","nodes":2,"prefix":"10.0.0.0/8"},{"name":"b","class":"dsl","nodes":2,"prefix":"10.0.0.0/16"}],"workload":{"kind":"gossip"}}`))
	f.Add([]byte(`{"name":"x","groups":[{"name":"a","class":"dsl","nodes":2,"prefix":"10.2.3.0/24"},{"name":"b","class":"dsl","nodes":2}],"workload":{"kind":"gossip"}}`))
	// A folded group may not sit in the machines' admin block.
	f.Add([]byte(`{"name":"x","folding":2,"groups":[{"name":"g","class":"dsl","nodes":4,"prefix":"172.16.1.0/24"}],"workload":{"kind":"gossip"}}`))
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
		top, cfg, err := d.compile()
		if err != nil {
			t.Fatalf("valid spec does not compile: %v\n%s", err, out)
		}
		a, err := Assemble(d.Seed, top, cfg, d.Folding)
		if err != nil {
			t.Fatalf("valid spec does not assemble: %v\n%s", err, out)
		}
		if slices.Contains(swarmKinds, d.Workload.Kind) {
			if _, _, err := addAdminHosts(a.Net, &d.Workload); err != nil {
				t.Fatalf("valid spec's admin hosts do not register: %v\n%s", err, out)
			}
		}
	})
}
