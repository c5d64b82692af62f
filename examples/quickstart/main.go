// Quickstart: build a two-node DSL network, open a connection, send a
// message and ping — the 20-line tour of the public API.
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
	lab, err := repro.NewLab(repro.LabConfig{Seed: 1, Nodes: 2, Class: topo.DSL})
	if err != nil {
		log.Fatal(err)
	}
	alice, bob := lab.Host(0), lab.Host(1)

	lab.Go("bob", func(p *sim.Proc) {
		l, err := bob.Listen(p, 80)
		if err != nil {
			log.Fatal(err)
		}
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		pk, err := conn.Recv(p)
		if err != nil {
			return
		}
		fmt.Printf("[%8v] bob received %q from %v\n", p.Now(), pk.Data, pk.From)
	})

	lab.Go("alice", func(p *sim.Proc) {
		p.Yield() // let bob listen first
		rtt, ok := alice.Ping(p, bob.Addr(), 56, time.Second)
		fmt.Printf("[%8v] alice pinged bob: rtt=%v ok=%v\n", p.Now(), rtt, ok)

		conn, err := alice.Dial(p, ip.Endpoint{Addr: bob.Addr(), Port: 80})
		if err != nil {
			log.Fatal(err)
		}
		conn.Send(p, []byte("hello over emulated DSL"))
		conn.Close(p)
	})

	if err := lab.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("simulation finished at", lab.Kernel.Now())
}
