package sim

import "math/rand"

// Len reports the number of buffered items.
func (c *Chan[T]) Len() int { return c.n }

// Len reports how many processes are currently parked on the Cond.
func (c *Cond) Len() int { return len(c.waiters) }

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.t.name }

// Rand returns the kernel's deterministic random source.
func (p *Proc) Rand() *rand.Rand { return p.k.rng }
