// Package vnet is a tokenheld fixture calling the fake sim package's
// annotated primitives across a package boundary: calls from host-side
// code must be flagged, every legal route to the token must not.
package vnet

import "repro/internal/sim"

type endpoint struct {
	k *sim.Kernel
}

// hostPoll runs on the host goroutine: no token anywhere in sight.
func (e *endpoint) hostPoll() {
	_ = e.k.LoopNow()        // want "Kernel.LoopNow requires the execution token"
	e.k.Schedule(0, func() { // want "Kernel.Schedule requires the execution token"
		_ = e.k.LoopNow() // the literal itself is fine: Schedule is //p2p:tokenarg
	})
	e.k.At(0, func() {
		_ = e.k.LoopNow() // fine: At is an entry, its callbacks hold the token
	})
	e.k.Go("worker", func(p *sim.Proc) {
		_ = e.k.LoopNow() // fine: the literal takes a *sim.Proc
	})
	_ = e.k.Now() // fine: the idle-kernel API carries no requirement
}

// transmit runs inside the kernel loop.
//
//p2p:token
func (e *endpoint) transmit() {
	_ = e.k.LoopNow() // fine: token context
	e.k.Schedule(0, func() {
		_ = e.k.LoopNow() // fine: unmarked literal inherits the enclosing context
	})
}

// resume is driven by a simulated goroutine: the *sim.Proc parameter
// is an implicit //p2p:token.
func (e *endpoint) resume(p *sim.Proc) {
	p.Sleep(1)
	_ = e.k.LoopNow()
	e.transmit()
}

func hostCallsToken(e *endpoint) {
	e.transmit()  // want "endpoint.transmit requires the execution token"
	e.resume(nil) // want "endpoint.resume requires the execution token"
}

// flush is an audited boundary in this fixture.
//
//p2p:tokenentry fixture boundary: serialized by construction in the harness
func (e *endpoint) flush() {
	_ = e.k.LoopNow() // fine: entries are token contexts
	e.transmit()      // fine
}

func markedLiteral(e *endpoint) func() {
	//p2p:token
	cb := func() {
		_ = e.k.LoopNow() // fine: the marker on the preceding line covers the literal
	}
	return cb
}

func suppressedCall(e *endpoint) {
	//lint:allow tokenheld fixture: this caller is itself the park/wake machinery
	e.transmit()
}

//p2p:frob cold path // want "unknown annotation //p2p:frob"
func misannotated(e *endpoint) {
	_ = e.k.Now()
}
