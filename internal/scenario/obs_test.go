package scenario

import (
	"testing"

	"repro/internal/obs"
)

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
