// Swarm: a scaled-down version of the paper's Fig 8 experiment — a
// BitTorrent swarm on DSL links, reporting the three phases of a
// torrent's life (seeder-only, cooperative, seeded endgame).
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	clients := flag.Int("clients", 40, "number of downloading clients")
	sizeMB := flag.Int64("size", 4, "file size in MiB")
	flag.Parse()

	sp := exp.Fig8Spec()
	sp.Groups[0].Nodes = sp.Workload.Seeders + *clients
	sp.Workload.FileSize = *sizeMB << 20
	sp.Workload.StartInterval = scenario.Duration(5 * time.Second)

	fmt.Printf("running %d-client swarm of a %d MiB file on emulated DSL...\n",
		*clients, *sizeMB)
	wall := time.Now()
	out, err := scenario.Run(&sp, scenario.Options{})
	if err != nil {
		log.Fatal(err)
	}

	var first, last sim.Time
	done := 0
	for _, c := range out.Completions {
		if c == 0 {
			continue
		}
		done++
		if first == 0 || c < first {
			first = c
		}
		if c > last {
			last = c
		}
	}
	fmt.Printf("completed: %d/%d clients\n", done, *clients)
	fmt.Printf("first completion at %v, last at %v (virtual)\n", first, last)
	fmt.Printf("simulated %v of swarm activity in %v of wall time\n",
		time.Duration(out.EndedAt).Round(time.Second), time.Since(wall).Round(time.Millisecond))

	// The three phases of Fig 8, read off the aggregate curve.
	total := exp.TotalReceivedSeries("total", out.Progress)
	totalMB := float64(*sizeMB) * float64(*clients)
	phase1 := total.At(first.Seconds()/3) / totalMB
	fmt.Printf("early phase (seeders only): %.1f%% of all data moved by t=%.0fs\n",
		100*phase1, first.Seconds()/3)
	fmt.Printf("swarm phase: 50%% of all data moved by t=%.0fs\n", findFrac(total, totalMB, 0.5))
	fmt.Printf("endgame: 95%% of all data moved by t=%.0fs\n", findFrac(total, totalMB, 0.95))
}

func findFrac(s *metrics.Series, total, frac float64) float64 {
	for _, p := range s.Points {
		if p.Y >= total*frac {
			return p.X
		}
	}
	return -1
}
