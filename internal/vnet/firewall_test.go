package vnet

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// newFirewalledEnv builds a two-host network with a rule table
// installed.
func newFirewalledEnv(classifier netem.Classifier) (*env, *netem.RuleSet) {
	k := sim.New(1)
	rs := netem.NewRuleSet()
	rs.SetClassifier(classifier)
	cfg := DefaultConfig()
	cfg.Rules = rs
	return &env{k: k, n: NewNetwork(k, nil, cfg)}, rs
}

// TestFirewallCostChargedToRTT is the Fig 6 mechanism end-to-end: ping
// RTT grows linearly with the number of filler rules under the linear
// classifier, because each traversal is charged Visited ×
// DefaultPerRuleCost of virtual time.
func TestFirewallCostChargedToRTT(t *testing.T) {
	rtt := func(fillers int, classifier netem.Classifier) time.Duration {
		e, rs := newFirewalledEnv(classifier)
		a, b := e.twoHosts(t)
		netem.PadFiller(rs, fillers)
		var out time.Duration
		e.run(t, func(p *sim.Proc) {
			d, ok := a.Ping(p, b.Addr(), DefaultPingSize, time.Minute)
			if !ok {
				t.Fatal("ping lost")
			}
			out = d
			e.k.Stop()
		})
		return out
	}

	base := rtt(0, netem.ClassifierLinear)
	linear := rtt(50000, netem.ClassifierLinear)
	indexed := rtt(50000, netem.ClassifierIndexed)

	// Two traversals of 50k rules at DefaultPerRuleCost ≈ 4.8 ms.
	wantDelta := 2 * 50000 * netem.DefaultPerRuleCost
	if got := linear - base; got != wantDelta {
		t.Errorf("linear 50k-rule RTT delta = %v, want %v", got, wantDelta)
	}
	// The indexed classifier visits no filler rules for the 10/8 ping
	// path: the curve stays flat.
	if indexed != base {
		t.Errorf("indexed 50k-rule RTT = %v, want base %v", indexed, base)
	}
}

// TestFirewallDenyBehavesLikePartition: a deny rule drops reliable
// traffic with retransmission and backoff; removing the rule in time
// heals the path transparently, exactly like Partition/Heal.
func TestFirewallDenyBehavesLikePartition(t *testing.T) {
	e, rs := newFirewalledEnv(netem.ClassifierLinear)
	a, b := e.twoHosts(t)
	deny := rs.AddHandle(netem.Rule{ID: rs.NextID(), Src: ip.NewPrefix(addrA, 32), Action: netem.ActionDeny})
	var dialErr error
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			l, err := b.Listen(p, 80)
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			l.Accept(p)
		})
		// Lift the deny after two RTO backoffs: the SYN's
		// retransmission heals the dial without the application
		// noticing.
		e.k.After(500*time.Millisecond, func() { rs.RemoveHandle(deny) })
		p.Yield()
		_, dialErr = a.Dial(p, ip.Endpoint{Addr: b.Addr(), Port: 80})
		e.k.Stop()
	})
	if dialErr != nil {
		t.Fatalf("dial through healed deny: %v", dialErr)
	}
	st := e.n.Stats()
	if st.RuleDenied == 0 {
		t.Error("no attempts accounted as rule-denied")
	}
	if st.Retransmits == 0 {
		t.Error("expected retransmissions while denied")
	}
}

// TestFirewallDenyPermanent: a deny that never lifts exhausts the
// handshake like an unreachable path.
func TestFirewallDenyPermanent(t *testing.T) {
	e, rs := newFirewalledEnv(netem.ClassifierIndexed)
	a, b := e.twoHosts(t)
	rs.Add(netem.Rule{ID: rs.NextID(), Dst: ip.NewPrefix(addrB, 32), Action: netem.ActionDeny})
	var dialErr error
	e.run(t, func(p *sim.Proc) {
		p.Go("server", func(p *sim.Proc) {
			l, err := b.Listen(p, 80)
			if err != nil {
				return
			}
			l.Accept(p)
		})
		p.Yield()
		_, dialErr = a.Dial(p, ip.Endpoint{Addr: b.Addr(), Port: 80})
		e.k.Stop()
	})
	if !errors.Is(dialErr, ErrTimeout) {
		t.Fatalf("dial err = %v, want ErrTimeout", dialErr)
	}
}

// TestNilRulesTraceIdentical: a network with Config.Rules == nil must
// produce a byte-identical trace to one built before the firewall
// existed — the golden-trace compatibility guarantee.
func TestNilRulesTraceIdentical(t *testing.T) {
	runTraced := func(cfg Config) string {
		k := sim.New(7)
		lg := trace.New(0)
		n := NewNetwork(k, nil, cfg)
		n.SetTrace(lg)
		a, _ := n.AddHost(addrA, netem.PipeConfig{}, netem.PipeConfig{})
		b, _ := n.AddHost(addrB, netem.PipeConfig{Bandwidth: netem.Mbps, Delay: 5 * time.Millisecond}, netem.PipeConfig{Bandwidth: netem.Mbps, Delay: 5 * time.Millisecond})
		k.Go("server", func(p *sim.Proc) {
			l, err := b.Listen(p, 80)
			if err != nil {
				return
			}
			c, err := l.Accept(p)
			if err != nil {
				return
			}
			c.Recv(p)
		})
		k.Go("client", func(p *sim.Proc) {
			p.Yield()
			c, err := a.Dial(p, ip.Endpoint{Addr: b.Addr(), Port: 80})
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c.SendMeta(p, 1000, nil)
			c.Close(p)
			p.Sleep(time.Second)
			k.Stop()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := lg.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	plain := runTraced(DefaultConfig())
	nilRules := DefaultConfig()
	nilRules.Rules = nil
	if got := runTraced(nilRules); got != plain {
		t.Fatal("nil-rules trace differs from baseline")
	}
	// And an *empty* table differs only by cost zero — same events.
	withEmpty := DefaultConfig()
	withEmpty.Rules = netem.NewRuleSet()
	if got := runTraced(withEmpty); got != plain {
		t.Fatal("empty-table trace differs from baseline")
	}
}

// TestListenerCloseRefusesBacklog is the half-open regression test: a
// dialer whose connection was queued (SYN-ACK'd) but never accepted
// must observe a reset when the listener closes, and the network's
// connection gauges must forget both ends.
func TestListenerCloseRefusesBacklog(t *testing.T) {
	e := newEnv()
	a, b := e.twoHosts(t)
	var recvErr error
	e.run(t, func(p *sim.Proc) {
		var l *Listener
		p.Go("server", func(p *sim.Proc) {
			var err error
			l, err = b.Listen(p, 80)
			if err != nil {
				t.Errorf("listen: %v", err)
			}
		})
		p.Yield()
		c, err := a.Dial(p, ip.Endpoint{Addr: b.Addr(), Port: 80})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		// The dialer is established; the server side sits un-accepted
		// in the backlog. Close must refuse it, not strand it.
		l.Close()
		_, recvErr = c.Recv(p) // blocks until the RST lands
		if n := e.n; n.connsEstablished != 0 || n.connsHalfOpen != 0 {
			t.Errorf("conn gauges read %d established, %d half-open, want 0 and 0", n.connsEstablished, n.connsHalfOpen)
		}
		e.k.Stop()
	})
	if !errors.Is(recvErr, ErrClosed) {
		t.Fatalf("recv err = %v, want ErrClosed", recvErr)
	}
}
