// Folding: a scaled-down version of the paper's Fig 9 experiment — the
// same BitTorrent swarm deployed at increasing folding ratios (virtual
// nodes per physical node). The paper's result, reproduced here, is
// that the aggregate download curves are nearly identical: process-
// level virtualization adds no measurable overhead until the host NIC
// saturates.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/scenario"
)

func main() {
	clients := flag.Int("clients", 32, "number of downloading clients")
	sizeMB := flag.Int64("size", 2, "file size in MiB")
	flag.Parse()

	base := exp.Fig8Spec()
	base.Workload.Seeders = 2
	base.Groups[0].Nodes = base.Workload.Seeders + *clients
	base.Workload.FileSize = *sizeMB << 20
	base.Workload.StartInterval = scenario.Duration(2 * time.Second)

	foldings := []int{1, 8, 16}
	fmt.Printf("swarm: %d clients, %d MiB file, foldings %v\n", *clients, *sizeMB, foldings)

	series, results, err := exp.Fig9(base, foldings)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfolding  last-completion  total-received  half-time")
	for i, s := range series {
		var last float64
		for _, c := range results[i].Completions {
			if c.Seconds() > last {
				last = c.Seconds()
			}
		}
		half := halfTime(s)
		fmt.Printf("%7d  %14.0fs  %13.1fMB  %8.0fs\n", foldings[i], last, s.LastY(), half)
	}
	fmt.Println("\nnearly identical rows = the paper's folding-invariance result")
}

// halfTime returns when the cumulative curve crosses half its total.
func halfTime(s *metrics.Series) float64 {
	half := s.LastY() / 2
	for _, p := range s.Points {
		if p.Y >= half {
			return p.X
		}
	}
	return -1
}
