package vnet

// Box carries a protocol value of type T as a message's meta behind a
// pooled pointer: SendMeta takes an `any`, and a struct passed by value
// is boxed afresh on every send, the dominant allocation of a
// protocol's hot path (chord's RPCs and gossip's pushes in an overlay
// sweep). The sender draws a box from its own BoxPool; the
// receiver takes the value out, which returns the box to that pool.
// The return crosses endpoints but never kernels, and one kernel
// serializes all execution, so a pool needs no lock. A box whose
// message is dropped, or that its receiver never opens, is left to the
// garbage collector.
type Box[T any] struct {
	v    T
	pool *BoxPool[T]
	next *Box[T]
}

// BoxPool is a sender's free list of boxes; its zero value is ready to
// use.
type BoxPool[T any] struct {
	free *Box[T]
}

// Get draws a box holding v from the pool.
func (bp *BoxPool[T]) Get(v T) *Box[T] {
	b := bp.free
	if b == nil {
		b = &Box[T]{pool: bp}
	} else {
		bp.free = b.next
	}
	b.v, b.next = v, nil
	return b
}

// Take returns the boxed value and gives the box back to its pool,
// cleared so a pooled box pins nothing the value pointed to. The box
// must not be read again.
func (b *Box[T]) Take() T {
	v := b.v
	var zero T
	b.v = zero
	b.next = b.pool.free
	b.pool.free = b
	return v
}
