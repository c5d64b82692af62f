// Quickstart: build a two-node DSL network, open a connection, send a
// message and ping — the 20-line tour of the assembler's API.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/ip"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vnet"
)

func main() {
	a, err := scenario.Assemble(1, topo.Uniform(2, topo.DSL), vnet.DefaultConfig(), 0)
	if err != nil {
		log.Fatal(err)
	}
	alice, bob := a.Hosts[0], a.Hosts[1]

	a.Kernel.Go("bob", func(p *sim.Proc) {
		l, err := bob.Listen(p, 80)
		if err != nil {
			log.Fatal(err)
		}
		conn, err := l.Accept(p)
		if err != nil {
			return
		}
		meta, err := conn.Recv(p)
		if err != nil {
			return
		}
		fmt.Printf("[%8v] bob received %q from %v\n", p.Now(), meta, conn.RemoteAddr())
	})

	a.Kernel.Go("alice", func(p *sim.Proc) {
		p.Yield() // let bob listen first
		rtt, ok := alice.Ping(p, bob.Addr(), 56, time.Second)
		fmt.Printf("[%8v] alice pinged bob: rtt=%v ok=%v\n", p.Now(), rtt, ok)

		conn, err := alice.Dial(p, ip.Endpoint{Addr: bob.Addr(), Port: 80})
		if err != nil {
			log.Fatal(err)
		}
		greeting := "hello over emulated DSL"
		conn.SendMeta(p, len(greeting), greeting)
		conn.Close(p)
	})

	if err := a.Kernel.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("simulation finished at", a.Kernel.Now())
}
