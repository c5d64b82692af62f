package bt

import (
	"fmt"
	"math/rand"
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
	allDone   *sim.Cond
}

// SwarmSpec describes the torrent side of an experiment (the hosts come
// from the caller, which owns topology and placement).
type SwarmSpec struct {
	// FileName names the synthetic content.
	FileName string
	// FileSize is the torrent size (the paper: 16 MB).
	FileSize int64
	// PieceLength defaults to 256 KiB.
	PieceLength int
	// Sparse selects SparseStorage (block receipt only) instead of
	// MemStorage (real bytes + SHA-1). Large swarms must use sparse.
	Sparse bool
	// Client configures all clients and seeders.
	Client ClientConfig
	// Tracker configures the tracker (zero value: defaults).
	Tracker TrackerConfig
}

// MaxMaterializedBytes bounds non-sparse swarm builds. A Sparse: false
// spec materializes the full file once as the master copy plus once per
// seeder (real bytes, SHA-1 hashed) — a snapshot-sized spec quietly
// allocating gigabytes is a misconfiguration, not a workload.
const MaxMaterializedBytes = 64 << 20

// DefaultSwarmSpec mirrors the paper's first experiment: a 16 MB file.
func DefaultSwarmSpec() SwarmSpec {
	return SwarmSpec{
		FileName:    "paper-16mb",
		FileSize:    16 * 1024 * 1024,
		PieceLength: DefaultPieceLength,
		Sparse:      true,
		Client:      DefaultClientConfig(),
	}
}

// BuildSwarm creates the tracker on trackerHost, seeders on seedHosts
// and leechers on clientHosts. Nothing starts until Start.
func BuildSwarm(spec SwarmSpec, trackerHost *vnet.Host, seedHosts, clientHosts []*vnet.Host) (*Swarm, error) {
	var meta *MetaInfo
	var seedData []byte
	var err error
	if spec.Sparse {
		meta, err = SyntheticTorrent(spec.FileName, spec.FileSize, spec.PieceLength)
	} else {
		if spec.FileSize > MaxMaterializedBytes {
			return nil, fmt.Errorf("bt: non-sparse swarm of %d bytes exceeds %d (MaxMaterializedBytes); use Sparse: true for large files",
				spec.FileSize, int64(MaxMaterializedBytes))
		}
		seedData = make([]byte, spec.FileSize)
		rnd := rand.New(rand.NewSource(42))
		rnd.Read(seedData)
		meta, err = CreateTorrent(spec.FileName, seedData, spec.PieceLength)
	}
	if err != nil {
		return nil, err
	}
	k := trackerHost.Network().Kernel()
	NewTrackerConfig(trackerHost, spec.Tracker)
	s := &Swarm{
		Meta:        meta,
		TrackerHost: trackerHost,
		allDone:     sim.NewCond(k),
	}
	trackerEP := ip.Endpoint{Addr: trackerHost.Addr(), Port: TrackerPort}

	for _, h := range seedHosts {
		var store Storage
		if spec.Sparse {
			store = NewSeededSparseStorage(meta)
		} else {
			ms, err := NewSeededMemStorage(meta, seedData)
			if err != nil {
				return nil, err
			}
			store = ms
		}
		s.Seeders = append(s.Seeders, NewClient(h, meta, store, trackerEP, spec.Client))
	}
	for _, h := range clientHosts {
		var store Storage
		if spec.Sparse {
			store = NewSparseStorage(meta)
		} else {
			store = NewMemStorage(meta)
		}
		c := NewClient(h, meta, store, trackerEP, spec.Client)
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
