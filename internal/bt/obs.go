package bt

import "repro/internal/obs"

// TTFPBuckets are the time-to-first-peer histogram bounds, in seconds —
// the metric webtor's seeder exports to spot swarms whose members never
// find each other (SNIPPETS 3); the wide top buckets catch clients that
// only meet a peer after a partition heals.
var TTFPBuckets = []float64{0.5, 1, 2, 5, 10, 30, 60, 120, 300, 600}

// btMetrics holds the client-layer instrument handles. All clients of
// one network share the same series (no per-client labels: a 50k-peer
// swarm must not create 50k series).
type btMetrics struct {
	ttfp         *obs.Histogram
	chokes       *obs.Counter
	unchokes     *obs.Counter
	pieces       *obs.Counter
	completions  *obs.Counter
	dialAttempts *obs.Counter
	dialFailures *obs.Counter
}

// newBTMetrics registers the client instruments on reg.
func newBTMetrics(reg *obs.Registry) btMetrics {
	return btMetrics{
		ttfp:         reg.Histogram("p2plab_bt_time_to_first_peer_seconds", "Virtual time from client start to first admitted peer.", TTFPBuckets),
		chokes:       reg.Counter("p2plab_bt_chokes_total", "", "Choke messages sent by the tit-for-tat choker."),
		unchokes:     reg.Counter("p2plab_bt_unchokes_total", "", "Unchoke messages sent by the tit-for-tat choker."),
		pieces:       reg.Counter("p2plab_bt_piece_completions_total", "", "Pieces completed and verified."),
		completions:  reg.Counter("p2plab_bt_downloads_completed_total", "", "Clients that finished their download."),
		dialAttempts: reg.Counter("p2plab_bt_dial_attempts_total", "", "Outbound peer connection attempts."),
		dialFailures: reg.Counter("p2plab_bt_dial_failures_total", "", "Outbound peer dials that failed to connect."),
	}
}
