// Package sim is a typecheck-only stand-in for the kernel package,
// carrying the annotated primitive surface the tokenheld fixtures call
// across a package boundary. Running the analyzer here first exports
// the //p2p: markers as facts, exactly as the vetx chain does under go
// vet.
package sim

type Time int64

type Duration int64

// Kernel is the fixture kernel.
type Kernel struct{}

// LoopNow reads the hot clock.
//
//p2p:token
func (k *Kernel) LoopNow() Time { return 0 }

// Schedule enqueues on the hot path; fn runs with the token held.
//
//p2p:token
//p2p:tokenarg
func (k *Kernel) Schedule(at Time, fn func()) {}

// At is the cold-boundary scheduler.
//
//p2p:tokenentry callers hold the token or the kernel is idle
//p2p:tokenarg
func (k *Kernel) At(at Time, fn func()) {}

// Go spawns a simulated goroutine; fn runs once the scheduler grants
// the token.
//
//p2p:tokenentry spawning is bookkeeping; fn runs once Run resumes the task
//p2p:tokenarg
func (k *Kernel) Go(name string, fn func(p *Proc)) {}

// Now is the clock read that carries no requirement.
func (k *Kernel) Now() Time { return 0 }

// Proc is a simulated goroutine's handle; one only ever exists inside
// a simulated goroutine, so *Proc in a signature is an implicit
// //p2p:token.
type Proc struct{}

func (p *Proc) Now() Time        { return 0 }
func (p *Proc) Sleep(d Duration) {}
