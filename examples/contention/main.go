// Command contention demonstrates the flow-level link model: N
// leechers download the same file from one seeder at the same time,
// so every transfer crosses the seeder's 1 Mbps uplink — the classic
// seeder-bottleneck scenario the pipe model cannot express.
//
// Under the pipe model (Dummynet-style), concurrent messages are
// serialized FIFO through the uplink cursor: the first leecher gets
// the full bandwidth and later ones queue behind it. Under the flow
// model, the uplink's capacity is split max-min fair across the
// concurrent flows: every leecher sees ~C/N throughput and they all
// finish together — the throughput collapse a real shared uplink
// produces. Flip between the two with a single option
// (vnet.Config.Model); run with -trace to watch the "net.flow"
// rate-change events on the virtual timeline.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vnet"
)

const (
	fileSize = 2_000_000 // 16 Mbit per leecher
	port     = ip.Port(6881)
)

func main() {
	peers := flag.Int("peers", 8, "number of simultaneous leechers")
	showTrace := flag.Bool("trace", false, "print the net.flow rate-change timeline (flow model)")
	flag.Parse()

	for _, model := range []netem.ModelKind{netem.ModelPipe, netem.ModelFlow} {
		if err := run(model, *peers, *showTrace); err != nil {
			fmt.Fprintln(os.Stderr, "contention:", err)
			os.Exit(1)
		}
	}
}

func run(model netem.ModelKind, peers int, showTrace bool) error {
	k := sim.New(1)
	cfg := vnet.DefaultConfig()
	cfg.Model = model
	// Under the pipe model the 16 s bulk messages block later
	// handshakes' SYNACKs on the uplink FIFO cursor (head-of-line
	// blocking is part of that model); give dials room to survive it.
	cfg.HandshakeTimeout = time.Hour
	net := vnet.NewNetwork(k, nil, cfg)

	var log *trace.Log
	if showTrace && model == netem.ModelFlow {
		log = trace.New(4096)
		net.SetTrace(log)
	}

	// The seeder's 1 Mbps uplink is the only bottleneck: leecher
	// downlinks are 20x faster, so all contention happens at the
	// seeder.
	seeder, err := net.AddHost(ip.MustParseAddr("10.0.0.1"),
		netem.PipeConfig{Bandwidth: 1 * netem.Mbps, Delay: 10 * time.Millisecond},
		netem.PipeConfig{Bandwidth: 20 * netem.Mbps, Delay: 10 * time.Millisecond})
	if err != nil {
		return err
	}
	done := make([]sim.Time, peers)
	var leechers []*vnet.Host
	for i := 0; i < peers; i++ {
		h, err := net.AddHost(ip.MustParseAddr("10.0.1.1").Add(uint32(i)),
			netem.PipeConfig{Bandwidth: 1 * netem.Mbps, Delay: 10 * time.Millisecond},
			netem.PipeConfig{Bandwidth: 20 * netem.Mbps, Delay: 10 * time.Millisecond})
		if err != nil {
			return err
		}
		leechers = append(leechers, h)
	}

	k.Go("seeder", func(p *sim.Proc) {
		l, err := seeder.Listen(p, port)
		if err != nil {
			return
		}
		for i := 0; i < peers; i++ {
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			k.Go("serve", func(p *sim.Proc) {
				// The whole file goes out as one message: one fluid
				// flow under the flow model, one serialized unit under
				// the pipe model.
				c.SendMeta(p, fileSize, nil)
				c.Close(p)
			})
		}
	})
	for i, h := range leechers {
		i, h := i, h
		k.Go(fmt.Sprintf("leech-%d", i), func(p *sim.Proc) {
			p.Sleep(time.Second) // let the seeder listen
			c, err := h.Dial(p, ip.Endpoint{Addr: seeder.Addr(), Port: port})
			if err != nil {
				return
			}
			// The file is the seeder's one message.
			if _, err := c.Recv(p); err != nil {
				return
			}
			done[i] = p.Now()
			c.Close(p)
		})
	}
	if err := k.RunUntil(sim.Time(2 * time.Hour)); err != nil {
		return err
	}

	fmt.Printf("== %s model: %d leechers x %d B through a 1 Mbps seeder uplink ==\n",
		model, peers, fileSize)
	var first, last sim.Time
	for i, at := range done {
		if at == 0 {
			fmt.Printf("   leecher %2d: DID NOT FINISH\n", i)
			continue
		}
		rate := float64(fileSize) * 8 / at.Sub(sim.Time(time.Second)).Seconds() / 1e6
		fmt.Printf("   leecher %2d: done at %8.1fs (%.2f Mbps effective)\n", i, at.Seconds(), rate)
		if first == 0 || at < first {
			first = at
		}
		if at > last {
			last = at
		}
	}
	fmt.Printf("   spread first->last: %.1fs", last.Sub(first).Seconds())
	if stats, ok := net.FlowStats(); ok {
		fmt.Printf("  (flows: %d started, %d rerates, %d solves)",
			stats.Started, stats.Rerates, stats.Solves)
	}
	fmt.Println()
	if log != nil {
		fmt.Println("-- net.flow timeline --")
		for _, e := range log.Filter("net.flow") {
			fmt.Printf("   %12s  %-16s %s\n", e.At, e.Node, e.Msg)
		}
	}
	fmt.Println()
	return nil
}
