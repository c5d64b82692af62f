// Locality: builds the paper's Fig 7 topology (three regions, five
// groups, 2750 nodes) and verifies the worked latency example — a ping
// from the fast-DSL ISP in region 1 to the campus network in region 2
// measures ≈853 ms, decomposed exactly as in the paper.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/topo"
)

func main() {
	lab, err := repro.NewLab(repro.LabConfig{
		Seed:     1,
		Topology: topo.Fig7(),
		Folding:  197, // fold 2750 virtual nodes onto 14 machines
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: %d virtual nodes on %d physical nodes (folding %.0f)\n",
		len(lab.Hosts), len(lab.Cluster.Nodes()), lab.Cluster.FoldingRatio())

	src := lab.Net.Host(ip.MustParseAddr("10.1.3.207"))
	targets := []struct {
		addr  string
		label string
	}{
		{"10.1.3.10", "same ISP (fast-dsl)"},
		{"10.1.1.5", "modem ISP, same region (+2×100ms)"},
		{"10.2.2.117", "campus, region 2 (+2×400ms) — the paper's worked example"},
		{"10.3.0.9", "office, region 3 (+2×600ms)"},
	}

	lab.Go("pinger", func(p *sim.Proc) {
		for _, tgt := range targets {
			rtt, ok := src.Ping(p, ip.MustParseAddr(tgt.addr), 56, 10*time.Second)
			if !ok {
				fmt.Printf("  %-12s lost\n", tgt.addr)
				continue
			}
			fmt.Printf("  10.1.3.207 -> %-12s rtt %8.1fms   %s\n",
				tgt.addr, float64(rtt)/float64(time.Millisecond), tgt.label)
		}
	})
	if err := lab.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\npaper's decomposition of the 853ms measurement:")
	fmt.Println("  20ms egress (fast-dsl) + 400ms region1<->region2 + 5ms ingress (campus)")
	fmt.Println("  = 425ms one way, 850ms round trip, plus emulation overhead")
}
