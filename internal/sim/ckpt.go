package sim

import (
	"fmt"
	"sort"

	"camouflage/internal/ckpt"
)

// Snapshot serializes the RNG stream position (splitmix64's entire state
// is one word, so a restored RNG continues the exact sequence).
func (r *RNG) Snapshot(e *ckpt.Encoder) { e.U64(r.state) }

// Restore implements ckpt.Stater.
func (r *RNG) Restore(d *ckpt.Decoder) error {
	r.state = d.U64()
	return d.Err()
}

// Snapshot serializes the kernel clock, the event tie-break sequence, the
// root RNG, and every pending typed event. Events are written in firing
// order — sorted by (at, seq) rather than in heap layout — so the bytes
// are a canonical function of simulation state, independent of the
// incidental push/pop history that shaped the heap's internal array.
// Registered components snapshot themselves; Snapshot first settles
// every sleeping one, so the components it precedes in a checkpoint
// encode the state a stepped run would hold.
func (k *Kernel) Snapshot(e *ckpt.Encoder) {
	k.Settle()
	e.U64(uint64(k.now))
	e.U64(k.seq)
	k.rng.Snapshot(e)
	evs := append([]event(nil), k.events...)
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].seq < evs[j].seq
	})
	e.Len(len(evs))
	for _, ev := range evs {
		e.U64(uint64(ev.at))
		e.U64(ev.seq)
		e.U64(uint64(ev.handler))
		e.U64(uint64(ev.kind))
		e.U64(ev.arg)
	}
}

// Restore implements ckpt.Stater. Pending events are re-queued against the
// handlers registered in this process; an event naming a handler ID beyond
// what has been registered means the restoring process was assembled
// differently from the writer and the checkpoint cannot be trusted.
// Sleep state is not checkpoint state: every component restarts awake.
func (k *Kernel) Restore(d *ckpt.Decoder) error {
	k.now = Cycle(d.U64())
	k.resetSleep()
	k.seq = d.U64()
	if err := k.rng.Restore(d); err != nil {
		return err
	}
	n := d.Len()
	if err := d.Err(); err != nil {
		return err
	}
	k.events = k.events[:0]
	for i := 0; i < n; i++ {
		ev := event{
			at:      Cycle(d.U64()),
			seq:     d.U64(),
			handler: HandlerID(d.U64()),
			kind:    EventKind(d.U64()),
			arg:     d.U64(),
		}
		if ev.handler < 0 || int(ev.handler) >= len(k.handlers) {
			return fmt.Errorf("sim: restored event names handler %d but only %d are registered",
				ev.handler, len(k.handlers))
		}
		k.events.push(ev)
	}
	return d.Err()
}
