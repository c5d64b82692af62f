// DHT: studies a second peer-to-peer system on the platform — a Chord
// ring — demonstrating what the edge-centric emulation model is for:
// the same overlay, run over different access-link classes, shows that
// lookup latency is dominated by the edge links while routing hop
// counts stay O(log N).
package main

import (
	"fmt"
	"log"

	"repro/internal/exp"
)

func main() {
	fmt.Println("Chord ring scaling (LAN links): avg lookup hops vs ring size")
	points, err := exp.DHTScaling([]int{8, 16, 32, 64}, 200, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  nodes  avg-hops  avg-latency")
	for _, pt := range points {
		fmt.Printf("  %5d  %8.2f  %v\n", pt.Nodes, pt.AvgHops, pt.AvgLatency)
	}

	fmt.Println("\nSame 32-node ring, different access links (the platform's point):")
	byClass, err := exp.DHTLocality(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  link    avg-hops  avg-latency  p90-latency")
	for _, name := range []string{"lan", "campus", "dsl", "modem"} {
		pt := byClass[name]
		fmt.Printf("  %-7s %8.2f  %11v  %v\n", name, pt.AvgHops, pt.AvgLatency, pt.P90Latency)
	}
	fmt.Println("\nsame overlay, same hops — the edge link sets the latency,")
	fmt.Println("which is exactly the paper's argument for edge-centric emulation")
}
