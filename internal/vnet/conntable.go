package vnet

// connTable maps connection IDs to *Conn with open addressing (linear
// probing, backward-shift deletion). It replaces a Go map on the
// per-message delivery path: a hit is one probe into an inline slot
// array, where the map pays header, directory and group dereferences —
// a measurable difference in 10k-host swarms whose per-host tables all
// miss cache. Connection IDs start at 1, so 0 marks an empty slot.
// Iteration (forEach) is in slot order: deterministic, used only for
// order-independent reductions (obs collectors).
type connTable struct {
	slots []connSlot // power-of-two length; nil until the first add
	used  int
}

type connSlot struct {
	id uint64
	c  *Conn
}

// home is the preferred slot for id: sequential IDs are spread by a
// Fibonacci multiply so probe runs stay short.
func (t *connTable) home(id uint64) int {
	return int((id*0x9E3779B97F4A7C15)>>32) & (len(t.slots) - 1)
}

func (t *connTable) get(id uint64) *Conn {
	if t.used == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s.id == id {
			return s.c
		}
		if s.id == 0 {
			return nil
		}
	}
}

func (t *connTable) add(c *Conn) {
	if t.slots == nil {
		t.slots = make([]connSlot, 8)
	} else if 4*(t.used+1) > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]connSlot, 2*len(old))
		for _, s := range old {
			if s.id != 0 {
				t.place(s.id, s.c)
			}
		}
	}
	mask := len(t.slots) - 1
	for i := t.home(c.id); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.id == c.id { // re-register: overwrite, like the map did
			s.c = c
			return
		}
		if s.id == 0 {
			s.id, s.c = c.id, c
			t.used++
			return
		}
	}
}

// place inserts during a rehash (keys known distinct, table known
// roomy).
func (t *connTable) place(id uint64, c *Conn) {
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		if t.slots[i].id == 0 {
			t.slots[i] = connSlot{id: id, c: c}
			return
		}
	}
}

func (t *connTable) del(id uint64) {
	if t.used == 0 {
		return
	}
	mask := len(t.slots) - 1
	i := t.home(id)
	for {
		s := t.slots[i]
		if s.id == 0 {
			return // absent: delete is a no-op, like the map
		}
		if s.id == id {
			break
		}
		i = (i + 1) & mask
	}
	// Backward-shift: pull every displaced follower into the hole so
	// no tombstones accumulate and probe runs stay contiguous.
	j := i
	for {
		j = (j + 1) & mask
		s := t.slots[j]
		if s.id == 0 {
			break
		}
		// s may fill the hole only if its home position does not lie
		// strictly between the hole and s (cyclically) — otherwise the
		// probe chain from its home would break at the hole.
		if (j-t.home(s.id))&mask >= (j-i)&mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = connSlot{}
	t.used--
}

// forEach visits every registered connection in slot order.
func (t *connTable) forEach(fn func(*Conn)) {
	for i := range t.slots {
		if t.slots[i].id != 0 {
			fn(t.slots[i].c)
		}
	}
}
