// Command snapshotsync runs the snapshot-sync workload: the inverse of
// the paper's many-small-peers swarms. A handful of clients pull one
// huge file in 2 MiB pieces over few connections, with token-bucket
// rate caps and a web seed as the always-available block source — the
// regime of a blockchain snapshot downloader (hundreds of GB behind a
// CDN in production, scaled down here to keep the run short).
//
//	go run ./examples/snapshotsync                     # 4 clients, 64 MiB, uncapped
//	go run ./examples/snapshotsync -down 1048576       # 1 MiB/s download caps
//	go run ./examples/snapshotsync -seeders 0          # cold CDN fill, web seed only
//
// The run prints per-client completion times, the share of payload the
// web seed carried, and the kernel's event statistics.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topo"
)

func main() {
	clients := flag.Int("clients", 4, "number of downloading clients")
	seeders := flag.Int("seeders", 1, "number of ordinary seeders")
	webseeds := flag.Int("webseeds", 1, "number of web-seed block servers")
	fileMB := flag.Int64("filemb", 64, "snapshot size in MiB (sparse, no bytes materialized)")
	pieceMB := flag.Int("piecemb", 2, "piece size in MiB")
	connCap := flag.Int("conncap", 5, "per-client connection cap")
	up := flag.Int64("up", 0, "per-client upload cap in bytes/s (0: unlimited)")
	down := flag.Int64("down", 0, "per-client download cap in bytes/s (0: unlimited)")
	model := flag.String("model", "flow", "link model (pipe, flow)")
	window := flag.Duration("window", 250*time.Millisecond, "flow-model re-rate batch window (0: solve per event)")
	seed := flag.Int64("seed", 1, "kernel RNG seed")
	horizon := flag.Duration("horizon", 2*time.Hour, "virtual-time horizon for the run")
	flag.Parse()

	if *seeders < 1 && *webseeds < 1 {
		fmt.Fprintln(os.Stderr, "snapshotsync: need a seeder or a web seed")
		os.Exit(1)
	}
	sp := scenario.Spec{
		Name:    "snapshotsync",
		Model:   *model,
		Seed:    *seed,
		Horizon: scenario.Duration(*horizon),
		Groups: []scenario.GroupSpec{
			{Name: "peers", Class: topo.FastDSL.Name, Nodes: *seeders + *clients},
		},
		Workload: scenario.WorkloadSpec{
			Kind:        scenario.WorkloadSnapshot,
			FileSize:    *fileMB << 20,
			Seeders:     *seeders,
			WebSeeds:    *webseeds,
			PieceLength: *pieceMB << 20,
			ConnCap:     *connCap,
			UpRate:      *up,
			DownRate:    *down,
		},
	}
	if *model == "flow" { // the pipe model has no solver to batch
		sp.FlowWindow = scenario.Duration(*window)
	}

	fmt.Printf("snapshotsync: %d clients, %d seeders, %d web seeds; %d MiB in %d MiB pieces, %d conns/client\n",
		*clients, *seeders, *webseeds, *fileMB, *pieceMB, *connCap)
	if *up > 0 || *down > 0 {
		fmt.Printf("rate caps: up %d B/s, down %d B/s\n", *up, *down)
	}
	start := time.Now()
	res, err := scenario.Run(&sp, scenario.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapshotsync:", err)
		os.Exit(1)
	}
	wall := time.Since(start)

	var last sim.Time
	for i, c := range res.Completions {
		if c > 0 {
			if c > last {
				last = c
			}
			fmt.Printf("client %d done at %v\n", i, time.Duration(c))
		} else {
			fmt.Printf("client %d DID NOT FINISH inside the horizon\n", i)
		}
	}
	wsBytes := res.Snapshot.Counters["webseed-bytes"]
	total := uint64(sp.Workload.FileSize) * uint64(res.Done)
	share := 0.0
	if total > 0 {
		share = 100 * float64(wsBytes) / float64(total)
	}
	fmt.Printf("wall time        %v\n", wall.Round(time.Millisecond))
	fmt.Printf("virtual time     %v (last completion %v)\n", time.Duration(res.EndedAt), time.Duration(last))
	fmt.Printf("completed        %d/%d clients\n", res.Done, res.Total)
	fmt.Printf("web seed bytes   %d (%.1f%% of delivered payload)\n", wsBytes, share)
	fmt.Printf("kernel events    %d dispatched, %d task spawns\n", res.Kernel.Events, res.Kernel.Spawns)
	fmt.Printf("net messages     %d delivered, %d dropped, %d retransmits\n",
		res.Net.MessagesDelivered, res.Net.MessagesDropped, res.Net.Retransmits)
	if res.Done == 0 {
		os.Exit(1)
	}
}
