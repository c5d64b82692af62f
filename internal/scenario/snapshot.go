package scenario

import (
	"fmt"

	"repro/internal/bt"
	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vnet"
)

// startSnapshot launches the snapshot workload: a handful of clients
// pulling one large file in big pieces over few connections, optionally
// rate-capped and backed by web seeds — the regime of a blockchain
// snapshot downloader rather than the paper's many-small-peers swarms.
// Web seeds live in admin space (192.168.0.2+) on LAN links next to the
// tracker: the CDN side of the path is fat, so the bottleneck stays the
// clients' access links and their token-bucket caps.
func (r *runner) startSnapshot() error {
	if err := r.addTracker(); err != nil {
		return err
	}
	w := r.spec.Workload
	horizon := r.spec.Horizon.D()

	wsBase := ip.MustParseAddr("192.168.0.2")
	var wsHosts []*vnet.Host
	var wsEndpoints []ip.Endpoint
	for i := 0; i < w.WebSeeds; i++ {
		h, err := r.Net.AddHostClass(wsBase.Add(uint32(i)), topo.LAN)
		if err != nil {
			return fmt.Errorf("scenario %s: web seed: %w", r.spec.Name, err)
		}
		wsHosts = append(wsHosts, h)
		wsEndpoints = append(wsEndpoints, ip.Endpoint{Addr: h.Addr(), Port: bt.WebSeedPort})
	}

	seedHosts := r.Groups[w.SeederGroup][:w.Seeders]
	isSeed := make(map[*vnet.Host]bool, len(seedHosts))
	for _, h := range seedHosts {
		isSeed[h] = true
	}
	var clients []*vnet.Host
	for _, h := range r.Hosts {
		h.SetBindEnv(h.Addr())
		if !isSeed[h] {
			clients = append(clients, h)
		}
	}

	cfg := bt.DefaultClientConfig()
	cfg.MaxPeers = w.ConnCap
	cfg.MaxInitiate = w.ConnCap
	cfg.MinPeers = w.ConnCap
	cfg.PipelineDepth = 0 // auto-scale to blocks-per-piece
	cfg.UploadRate = w.UpRate
	cfg.DownloadRate = w.DownRate
	cfg.WebSeeds = wsEndpoints

	bspec := bt.DefaultSwarmSpec()
	bspec.FileName = "snapshot"
	bspec.FileSize = w.FileSize
	bspec.PieceLength = w.PieceLength
	bspec.Sparse = true
	bspec.Client = cfg

	// A restart scenario peels the first seeder off the swarm's static
	// seeder set and runs it through the resuming-client lifecycle
	// instead: offline at seed_restart_at, back (same storage) after
	// seed_restart_down.
	restart := w.SeedRestartAt > 0
	buildSeeds := seedHosts
	if restart {
		buildSeeds = seedHosts[1:]
	}
	swarm, err := bt.BuildSwarm(bspec, r.tracker, buildSeeds, clients)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", r.spec.Name, err)
	}
	webseeds := make([]*bt.WebSeed, len(wsHosts))
	for i, h := range wsHosts {
		webseeds[i] = bt.NewWebSeed(h, swarm.Meta, bt.NewSeededSparseStorage(swarm.Meta))
	}
	trackerEP := ip.Endpoint{Addr: r.tracker.Addr(), Port: bt.TrackerPort}

	swarm.Start(w.StartInterval.D())
	if restart {
		rc := bt.NewResumingClient(seedHosts[0], swarm.Meta,
			bt.NewSeededSparseStorage(swarm.Meta), trackerEP, cfg)
		r.Kernel.Go("snapshot-restart-seed", func(p *sim.Proc) {
			rc.Online(p)
			p.Sleep(w.SeedRestartAt.D())
			r.event("seed offline (restart)")
			rc.Offline(p)
			p.Sleep(w.SeedRestartDown.D())
			r.event("seed back online")
			rc.Online(p)
		})
	}

	r.Kernel.Go("scenario-waiter", func(p *sim.Proc) {
		swarm.WaitAll(p, horizon)
		r.Kernel.Stop()
	})

	r.finish = func(res *Result) {
		res.Total = len(clients)
		res.completions(swarm, w.FileSize)
		var wsBytes uint64
		for _, ws := range webseeds {
			wsBytes += ws.Stats().BytesServed
		}
		res.Snapshot.Set("clients-done", float64(res.Done))
		res.Snapshot.Set("done-fraction", float64(res.Done)/float64(res.Total))
		res.Snapshot.Count("webseed-bytes", wsBytes)
	}
	return nil
}
