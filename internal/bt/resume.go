package bt

import (
	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/vnet"
)

// ResumingClient adapts one (host, Bitfield) pair to a churn-driven
// lifecycle: each Online starts a fresh Client resuming from the kept
// Bitfield, Offline stops the current incarnation abruptly (the peer
// departs mid-transfer; the pieces it completed survive). The
// Online/Offline methods satisfy repro/internal/churn.Peer: the
// scenario runner (internal/scenario) drives a churn-swarm's churning
// clients, and a snapshot's restarting seeder, through this adapter.
type ResumingClient struct {
	host    *vnet.Host
	meta    *MetaInfo
	have    *Bitfield
	tracker ip.Endpoint
	cfg     ClientConfig
	cur     *Client
	done    bool
}

// NewResumingClient returns an offline resuming client holding the
// pieces set in have; the first Online call starts its first session.
func NewResumingClient(host *vnet.Host, meta *MetaInfo, have *Bitfield, tracker ip.Endpoint, cfg ClientConfig) *ResumingClient {
	return &ResumingClient{host: host, meta: meta, have: have, tracker: tracker, cfg: cfg}
}

// Online implements churn.Peer: start a fresh client session resuming
// from the kept Bitfield. A still-running session is left alone
// (session-overlap guard).
func (rc *ResumingClient) Online(p *sim.Proc) {
	if rc.cur != nil && !rc.cur.Stopped() {
		return
	}
	c := NewClient(rc.host, rc.meta, rc.have, rc.tracker, rc.cfg)
	c.OnComplete = func(*Client, sim.Time) { rc.done = true }
	if rc.have.Complete() {
		rc.done = true // resumed into completeness
	}
	rc.cur = c
	c.Start()
}

// Offline implements churn.Peer: abrupt departure.
func (rc *ResumingClient) Offline(p *sim.Proc) {
	if rc.cur != nil {
		rc.cur.Stop()
	}
}

// Done reports whether the download has completed across sessions
// (observed by a session, or present in the kept Bitfield).
func (rc *ResumingClient) Done() bool {
	return rc.done || rc.have.Complete()
}
