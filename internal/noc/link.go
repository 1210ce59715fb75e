// Package noc models the shared on-chip channel between processor cores
// and the memory controller — the paper's shared channels SC1 (cores to
// controller) and SC5 (controller back to cores). The model is a shared
// link: per-core bounded input queues, round-robin arbitration for a fixed
// number of transfers per cycle, and a fixed pipeline latency. Contention
// at the arbiter is precisely the cross-core interference an adversary can
// observe, and the link's entry point is where the pin/bus monitoring tap
// sits.
package noc

import (
	"fmt"

	"camouflage/internal/mem"
	"camouflage/internal/sim"
)

// Tap observes every transaction crossing the link at its injection time.
// The bus-monitoring adversary and the distribution-measurement probes are
// Taps.
type Tap func(now sim.Cycle, req *mem.Request)

// FaultAction is what a fault hook does to a transaction entering the link.
type FaultAction uint8

// Fault hook outcomes.
const (
	// FaultNone passes the transaction through unharmed.
	FaultNone FaultAction = iota
	// FaultDrop loses the transaction inside the link.
	FaultDrop
	// FaultDelay holds the transaction (and everything behind it) for the
	// returned number of extra cycles.
	FaultDelay
	// FaultDuplicate injects a second copy of the transaction.
	FaultDuplicate
)

// FaultHook decides, for each transaction after it has passed the taps,
// whether the link misbehaves. It returns the action and, for FaultDelay,
// the extra latency in cycles. Hooks run after the taps so observers (the
// adversary, the flow-conservation checker) see the injection and can
// detect the loss downstream.
type FaultHook func(now sim.Cycle, req *mem.Request) (FaultAction, sim.Cycle)

// Link is a shared, arbitrated, fixed-latency channel.
type Link struct {
	name    string
	latency sim.Cycle
	width   int

	inputs []*mem.Queue
	pipe   *mem.DelayPipe
	route  func(req *mem.Request) mem.ReqPort
	taps   []Tap
	fault  FaultHook

	rr int

	// slot is the link's kernel slot (nil while the kernel ticks every
	// component); Pushes into its inputs wake it, and so does a blocking
	// destination freeing space.
	slot *sim.Slot
	// blocked is the destination that refused the pipe's mature head at
	// the last tick, when it is one the link may sleep on; nil otherwise.
	// Derived from the last tick, never checkpointed.
	blocked blockingPort

	stats LinkStats
}

// LinkStats counts link activity.
type LinkStats struct {
	Injected  uint64
	Delivered uint64
	// StallCycles counts cycles in which the head of the pipe was mature
	// but its destination refused delivery.
	StallCycles uint64
	// PerCoreInjected counts injections per input.
	PerCoreInjected []uint64
	// Dropped, Delayed and Duplicated count fault-hook interventions.
	Dropped    uint64
	Delayed    uint64
	Duplicated uint64
}

// blockingPort is a destination a link with a refused head may sleep on:
// it refuses only when full, wakes the link when it frees space, and
// counts the offers the link would have retried meanwhile.
// memctrl.Controller is one.
type blockingPort interface {
	mem.SpacePort
	// AddRejected counts n offers refused while full.
	AddRejected(n uint64)
}

// NewLink returns a link named name with cores input queues of capacity
// inputCap each (0 = unbounded), the given one-way latency, and width
// transfers accepted per cycle.
func NewLink(name string, cores, inputCap int, latency sim.Cycle, width int) *Link {
	if cores <= 0 {
		panic("noc: NewLink with no inputs")
	}
	if width <= 0 {
		width = 1
	}
	l := &Link{
		name:    name,
		latency: latency,
		width:   width,
		pipe:    mem.NewDelayPipe(latency),
		stats:   LinkStats{PerCoreInjected: make([]uint64, cores)},
	}
	l.inputs = make([]*mem.Queue, cores)
	for i := range l.inputs {
		l.inputs[i] = mem.NewQueue(inputCap)
	}
	return l
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

// Input returns core's injection port. Senders use TrySend; a false return
// is the backpressure that stalls the sender.
func (l *Link) Input(core int) *mem.Queue { return l.inputs[core] }

// SetRoute installs the delivery function mapping a transaction to its
// destination port. For the request link this is constant (the memory
// controller); for the response link it demultiplexes on req.Core.
func (l *Link) SetRoute(route func(req *mem.Request) mem.ReqPort) { l.route = route }

// AddTap registers an observer of injected transactions.
func (l *Link) AddTap(t Tap) { l.taps = append(l.taps, t) }

// SetFaultHook installs a fault injector on the link (nil removes it).
func (l *Link) SetFaultHook(h FaultHook) { l.fault = h }

// Outstanding returns the number of transactions inside the link: queued
// at the inputs or in flight in the pipe. The forward-progress watchdog
// folds it into the system's total in-flight count.
func (l *Link) Outstanding() int {
	n := l.pipe.Len()
	for _, q := range l.inputs {
		n += q.Len()
	}
	return n
}

// ForEachRequest visits every request inside the link: queued at the
// inputs or in flight in the pipe. Checkpoint restore uses it to rebuild
// MSHR aliasing.
func (l *Link) ForEachRequest(fn func(*mem.Request)) {
	for _, q := range l.inputs {
		q.ForEach(fn)
	}
	l.pipe.ForEach(fn)
}

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats {
	s := l.stats
	s.PerCoreInjected = append([]uint64(nil), l.stats.PerCoreInjected...)
	return s
}

// BindSlot implements sim.Sleeper. The link only changes from outside
// through Pushes into its input queues, which wake it.
func (l *Link) BindSlot(s *sim.Slot) {
	l.slot = s
	for _, q := range l.inputs {
		q.SetWake(s)
	}
}

// NextWake implements sim.NextWaker. Anything queued at an input wants
// arbitration next cycle, unless the pipe sits at its bound and the
// arbiter cannot grant. An in-flight pipe wakes when its head matures; a
// mature head refused by a blocking destination that is still full waits
// for that destination to wake the link, and any other refused head
// retries every cycle. An empty link only acts when a sender injects,
// and that sender's own wake covers the cycle.
func (l *Link) NextWake(now sim.Cycle) sim.Cycle {
	if l.queued() && l.pipe.Len() < l.capacity() {
		return now + 1
	}
	if ready, ok := l.pipe.NextReady(); ok {
		if ready > now {
			return ready
		}
		if l.blocked != nil && l.blocked.Full() {
			return sim.NeverWake
		}
		return now + 1
	}
	return sim.NeverWake
}

// queued reports whether any input holds a transaction.
func (l *Link) queued() bool {
	for _, q := range l.inputs {
		if q.Len() > 0 {
			return true
		}
	}
	return false
}

// Skip implements sim.Skipper: an idle tick still rotates the
// round-robin pointer, and while the pipe sits at its bound it also
// counts a stall (the arbiter refuses to grant even with nothing
// queued), so a skipped span must do both by the span length to keep
// fast-path state (and checkpoints) byte-identical to a stepped run. A
// link asleep on a blocking destination also retried its head every
// cycle: one delivery stall here and one rejection there per cycle.
// The destination stays full throughout, since freeing space wakes the
// link first.
func (l *Link) Skip(from, to sim.Cycle) {
	n := len(l.inputs)
	span := to - from + 1
	l.rr = (l.rr + int(span%sim.Cycle(n))) % n
	if l.pipe.Len() >= l.capacity() {
		l.stats.StallCycles += uint64(span)
	}
	if l.blocked != nil {
		l.stats.StallCycles += uint64(span)
		l.blocked.AddRejected(uint64(span))
	}
}

// capacity is the pipe's occupancy bound: width transfers per stage
// over latency+1 stages (see Tick).
func (l *Link) capacity() int { return int(l.latency+1) * l.width }

// Tick advances the link one cycle: deliver matured transactions (in
// order, stopping at backpressure), then arbitrate new injections
// round-robin across the input queues. A head refused by a blocking
// destination asks it to wake the link on space. With every input
// drained, or the pipe at its bound, the link offers to sleep.
func (l *Link) Tick(now sim.Cycle) {
	if l.route == nil {
		panic(fmt.Sprintf("noc: link %q ticked without a route", l.name))
	}
	l.blocked = nil
	for {
		head := l.pipe.Ready(now)
		if head == nil {
			break
		}
		dest := l.route(head)
		if !dest.TrySend(now, head) {
			l.stats.StallCycles++
			if b, ok := dest.(blockingPort); ok && b.Full() {
				b.WakeOnSpace(l.slot)
				l.blocked = b
			}
			break
		}
		l.pipe.Pop(now)
		l.stats.Delivered++
	}

	// The pipe models fixed-latency wires plus one cycle of staging at
	// the channel entry: it can hold at most width transfers per stage.
	// When deliveries stall long enough to fill that, the arbiter stops
	// granting — the backpressure a real shared channel asserts —
	// instead of buffering unboundedly inside the wires. A stall-free
	// link never reaches the bound, so uncongested runs are unaffected.
	capacity := l.capacity()
	granted := 0
	n := len(l.inputs)
	for scanned := 0; scanned < n && granted < l.width; scanned++ {
		if l.pipe.Len() >= capacity {
			l.stats.StallCycles++
			break
		}
		idx := (l.rr + scanned) % n
		req := l.inputs[idx].Pop()
		if req == nil {
			continue
		}
		l.stats.Injected++
		l.stats.PerCoreInjected[idx]++
		for _, t := range l.taps {
			t(now, req)
		}
		action, extra := FaultNone, sim.Cycle(0)
		if l.fault != nil {
			action, extra = l.fault(now, req)
		}
		switch action {
		case FaultDrop:
			l.stats.Dropped++
		case FaultDelay:
			l.stats.Delayed++
			l.pipe.PushAfter(now, extra, req)
		case FaultDuplicate:
			l.stats.Duplicated++
			l.pipe.Push(now, req)
			dup := *req
			l.pipe.Push(now, &dup)
		default:
			l.pipe.Push(now, req)
		}
		granted++
	}
	l.rr = (l.rr + 1) % n
	if l.slot != nil && (!l.queued() || l.pipe.Len() >= capacity) {
		l.slot.Offer()
	}
}
