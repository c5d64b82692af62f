package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestObsTraceNeutral is the observability half of the golden-trace
// property: every run carries a registry, and periodically sampling it
// must not move a single event of a single scenario — the rendered
// trace, the network stats and the completion figures are
// byte-identical with the sampler on or off. Kernel stats are
// deliberately excluded: the sampler's own self-rescheduling event
// legitimately increases the dispatched event count without touching
// anyone else's dispatch order. The nil-versus-live registry half
// lives where a nil registry still exists, on a raw network
// (bt's TestObsNeutralOnRawNetwork).
func TestObsTraceNeutral(t *testing.T) {
	render := func(sp Spec, opt Options, lg *trace.Log) (string, *Result) {
		t.Helper()
		opt.Trace = lg
		res, err := Run(&sp, opt)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		h := sha256.New()
		if err := lg.Render(h); err != nil {
			t.Fatalf("%s: render: %v", sp.Name, err)
		}
		fmt.Fprintf(h, "net %+v ended %v done %d/%d\n",
			res.Net, res.EndedAt, res.Done, res.Total)
		return hex.EncodeToString(h.Sum(nil)), res
	}

	sampledAny := false
	for _, sp := range Corpus() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			bare, _ := render(sp, Options{}, trace.New(0))

			reg := obs.NewRegistry()
			samples := 0
			var lastSnap *obs.Snapshot
			instrumented, _ := render(sp, Options{
				Obs:            reg,
				SampleInterval: 10 * time.Second,
				OnSample: func(at sim.Time, snap *obs.Snapshot) {
					samples++
					lastSnap = snap
				},
			}, trace.New(0))

			if bare != instrumented {
				t.Fatalf("trace diverged with a sampler (unsampled digest %.16s, sampled %.16s)",
					bare, instrumented)
			}
			if samples > 0 {
				sampledAny = true
				if lastSnap.Total("p2plab_sim_events_total") == 0 {
					t.Error("sampled snapshot shows no kernel events")
				}
			}
			// The final registry state must mirror the run regardless of
			// whether a sampling boundary was reached.
			final := reg.Snapshot()
			if final.Find("p2plab_net_messages_sent_total") == nil {
				t.Error("network counters not registered")
			}
		})
	}
	if !sampledAny {
		t.Error("no scenario reached a single 10s sampling boundary")
	}
}

// TestObsFinalCountersMirrorStats pins the registry's network series
// to the NetworkStats they are views of: after any scenario run the
// registry's counters must equal the struct the vnet layer keeps. The
// kernel's parks are the switches less the sleeps that returned in
// place, of which a swarm has many.
func TestObsFinalCountersMirrorStats(t *testing.T) {
	sp, ok := ByName("flash-crowd")
	if !ok {
		t.Skip("flash-crowd not in corpus")
	}
	reg := obs.NewRegistry()
	res, err := Run(&sp, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	checks := map[string]uint64{
		"p2plab_net_messages_sent_total":      res.Net.MessagesSent,
		"p2plab_net_messages_delivered_total": res.Net.MessagesDelivered,
		"p2plab_net_messages_dropped_total":   res.Net.MessagesDropped,
		"p2plab_net_retransmits_total":        res.Net.Retransmits,
		"p2plab_net_bytes_delivered_total":    res.Net.BytesDelivered,
	}
	for name, want := range checks {
		if got := snap.Total(name); got != float64(want) {
			t.Errorf("%s = %g, want %d", name, got, want)
		}
	}
	if snap.Total("p2plab_net_messages_sent_total") == 0 {
		t.Error("flash-crowd sent no messages?")
	}
	if got := snap.Total("p2plab_sim_events_total"); got != float64(res.Kernel.Events) {
		t.Errorf("sim events counter = %g, want %d", got, res.Kernel.Events)
	}
	if parks, switches := snap.Total("p2plab_sim_parks_total"), float64(res.Kernel.Switches); parks == 0 || parks >= switches {
		t.Errorf("sim parks counter = %g with %g switches, want 0 < parks < switches", parks, switches)
	}
}
