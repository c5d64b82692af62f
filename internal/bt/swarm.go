package bt

import (
	"fmt"
	"time"

	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/vnet"
)

// Swarm bundles a tracker, seeders and downloading clients built on an
// emulated network — the unit of the paper's BitTorrent experiments.
type Swarm struct {
	Meta        *MetaInfo
	TrackerHost *vnet.Host
	Seeders     []*Client
	Clients     []*Client

	completed int
	allDone   sim.Cond
}

// SwarmSpec describes the torrent side of an experiment (the hosts come
// from the caller, which owns topology and placement).
type SwarmSpec struct {
	// FileSize is the torrent size (the paper: 16 MB).
	FileSize int64
	// PieceLength defaults to 256 KiB.
	PieceLength int
	// Client configures all clients and seeders.
	Client ClientConfig
}

// DefaultSwarmSpec mirrors the paper's first experiment: a 16 MB file.
func DefaultSwarmSpec() SwarmSpec {
	return SwarmSpec{
		FileSize:    16 * 1024 * 1024,
		PieceLength: DefaultPieceLength,
		Client:      DefaultClientConfig(),
	}
}

// swarmFileName names every swarm's synthetic content. The name reaches
// only the info hash, which no trace, column or digest prints.
const swarmFileName = "paper-16mb"

// BuildSwarm creates the tracker on trackerHost, seeders on seedHosts
// and leechers on clientHosts. Nothing starts until Start.
func BuildSwarm(spec SwarmSpec, trackerHost *vnet.Host, seedHosts, clientHosts []*vnet.Host) (*Swarm, error) {
	meta, err := SyntheticTorrent(swarmFileName, spec.FileSize, spec.PieceLength)
	if err != nil {
		return nil, err
	}
	NewTracker(trackerHost)
	s := &Swarm{
		Meta:        meta,
		TrackerHost: trackerHost,
	}
	trackerEP := ip.Endpoint{Addr: trackerHost.Addr(), Port: TrackerPort}

	for _, h := range seedHosts {
		s.Seeders = append(s.Seeders, NewClient(h, meta, Full(meta.NumPieces()), trackerEP, spec.Client))
	}
	for _, h := range clientHosts {
		c := NewClient(h, meta, NewBitfield(meta.NumPieces()), trackerEP, spec.Client)
		//p2p:token invoked by the client event loop when the download completes
		c.OnComplete = func(*Client, sim.Time) {
			s.completed++
			if s.completed == len(s.Clients) {
				s.allDone.Broadcast()
			}
		}
		s.Clients = append(s.Clients, c)
	}
	return s, nil
}

// Start launches the seeders immediately and the clients staggered by
// startInterval ("the clients are started with a 10s interval" in
// Fig 8, 0.25 s in Fig 10).
func (s *Swarm) Start(startInterval time.Duration) {
	k := s.TrackerHost.Network().Kernel()
	for _, seed := range s.Seeders {
		seed.Start()
	}
	for i, c := range s.Clients {
		c := c
		k.After(time.Duration(i)*startInterval, func() { c.Start() })
	}
}

// WaitAll parks until every client completes or the timeout elapses; it
// reports whether all completed.
func (s *Swarm) WaitAll(p *sim.Proc, timeout time.Duration) bool {
	deadline := p.Now().Add(timeout)
	for s.completed < len(s.Clients) {
		remaining := deadline.Sub(p.Now())
		if remaining <= 0 {
			return false
		}
		s.allDone.WaitTimeout(p, remaining)
	}
	return true
}

// CompletionTimes returns each client's finish instant (zero when it
// did not finish).
func (s *Swarm) CompletionTimes() []sim.Time {
	out := make([]sim.Time, len(s.Clients))
	for i, c := range s.Clients {
		out[i] = c.FinishedAt()
	}
	return out
}

// String summarizes the swarm.
func (s *Swarm) String() string {
	return fmt.Sprintf("swarm(%s: %d seeders, %d clients, %d pieces)",
		s.Meta.Name, len(s.Seeders), len(s.Clients), s.Meta.NumPieces())
}
