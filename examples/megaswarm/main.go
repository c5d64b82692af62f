// Command megaswarm runs the swarm-scale stress workload: a flash
// crowd of N leechers (default 10000) joining an 8 MB sparse torrent
// within seconds, bounded by a virtual-time horizon. It is the
// "how many emulated peers fit on this hardware" measurement behind
// internal/exp's BenchmarkSwarmScale, packaged as a driver so the
// number is easy to reproduce outside the test binary:
//
//	go run ./examples/megaswarm              # 10k peers, 2 min horizon
//	go run ./examples/megaswarm -peers 1000  # reduced run (CI smoke)
//
// The run prints emulation throughput (peers per wall-clock second),
// transfer volume, and the kernel's event statistics. Before the bt
// hot-loop refactor (per-event O(pieces)/O(peers) scans) the 10k point
// sustained ~20 peers/sec; the incremental hot paths, the cross-layer
// pooling and the kernel lock-discipline work together hold it around
// ~59 (and ~102 at the 1k point) on the reference container.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"repro/internal/exp"
	"repro/internal/scenario"
)

func main() {
	peers := flag.Int("peers", 10000, "number of leechers in the flash crowd")
	horizon := flag.Duration("horizon", 2*time.Minute, "virtual-time horizon for the run")
	fileMB := flag.Int64("filemb", 8, "torrent size in MiB (sparse, no bytes materialized)")
	seed := flag.Int64("seed", 1, "kernel RNG seed")
	flag.Parse()

	// Dedicated-emulation-host configuration: the kernel is strictly
	// serial and allocation-heavy relative to its live heap, so wider GC
	// headroom buys back a measurable share of the run (see
	// BenchmarkSwarmScale, which applies the same setting).
	debug.SetGCPercent(400)

	sp := exp.MegaswarmSpec(*peers)
	sp.Seed = *seed
	sp.Horizon = scenario.Duration(*horizon)
	sp.Workload.FileSize = *fileMB << 20

	fmt.Printf("megaswarm: %d leechers + %d seeders, %d MiB torrent, %s horizon\n",
		*peers, sp.Workload.Seeders, *fileMB, *horizon)
	start := time.Now()
	out, err := scenario.Run(&sp, scenario.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "megaswarm:", err)
		os.Exit(1)
	}
	wall := time.Since(start)

	var pieces int
	var bytes int64
	for _, prog := range out.Progress {
		if len(prog) > 0 {
			pieces += len(prog)
			bytes += prog[len(prog)-1].Bytes
		}
	}
	if bytes == 0 {
		fmt.Fprintln(os.Stderr, "megaswarm: swarm moved no data")
		os.Exit(1)
	}

	fmt.Printf("wall time        %v\n", wall.Round(time.Millisecond))
	fmt.Printf("peers/sec        %.2f\n", float64(*peers)/wall.Seconds())
	fmt.Printf("virtual time     %v\n", time.Duration(out.EndedAt))
	fmt.Printf("pieces verified  %d (%.1f MiB, %.0f bytes/peer)\n",
		pieces, float64(bytes)/(1<<20), float64(bytes)/float64(*peers))
	fmt.Printf("completed peers  %d/%d inside horizon\n", out.Done, out.Total)
	fmt.Printf("kernel events    %d dispatched, %d task spawns\n", out.Kernel.Events, out.Kernel.Spawns)
	fmt.Printf("net messages     %d delivered, %d dropped, %d retransmits\n",
		out.Net.MessagesDelivered, out.Net.MessagesDropped, out.Net.Retransmits)
}
