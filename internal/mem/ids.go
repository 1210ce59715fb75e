package mem

import "camouflage/internal/sim"

// IDs is the run-wide request ID counter. Caches and shapers draw from
// one counter so bus traces have a total order. A request shaper asleep
// against a full output still owes one ID per refused fake retry; it
// burns them when it settles, not cycle by cycle. Burns commute, so only
// a draw that observes the counter must first settle every sleeper that
// may owe some: the kernel's settle rule (through the last cycle whose
// tick slot has passed) then yields exactly the stepped interleaving.
// The zero value is a counter that has issued nothing.
type IDs struct {
	last uint64
	// owing lists the slots of sleepers that may owe burns. An entry
	// found awake is dropped: waking settled it.
	owing []*sim.Slot
}

// Next settles every sleeper that may owe burns and returns a fresh ID.
func (c *IDs) Next() uint64 {
	c.settle()
	c.last++
	return c.last
}

// Burn consumes n IDs without observing them.
func (c *IDs) Burn(n uint64) { c.last += n }

// Last settles every sleeper that may owe burns and returns the last ID
// consumed. Checkpoints encode it.
func (c *IDs) Last() uint64 {
	c.settle()
	return c.last
}

// Set restores the counter.
func (c *IDs) Set(last uint64) { c.last = last }

// Owe registers s, about to sleep, as a sleeper that may owe burns until
// it wakes. A nil slot (the all-tick mode) owes nothing.
func (c *IDs) Owe(s *sim.Slot) {
	if s == nil {
		return
	}
	for _, o := range c.owing {
		if o == s {
			return
		}
	}
	c.owing = append(c.owing, s)
}

func (c *IDs) settle() {
	for i := 0; i < len(c.owing); {
		if s := c.owing[i]; s.Asleep() {
			s.Settle()
			i++
			continue
		}
		last := len(c.owing) - 1
		c.owing[i] = c.owing[last]
		c.owing[last] = nil
		c.owing = c.owing[:last]
	}
}
