// Package sim provides the cycle-stepped simulation kernel shared by every
// substrate in the Camouflage reproduction: a monotonically advancing clock,
// tickable components, a deterministic pseudo-random source, and a typed
// event scheduler for components that prefer timer-style wakeups over
// per-cycle polling.
//
// The kernel is cycle-stepped rather than event-driven because the two most
// timing-sensitive subsystems — the DDR3 state machines in package dram and
// the credit-replenishment logic in package shaper — naturally advance once
// per memory-clock cycle. A tick kernel keeps their state machines flat and
// makes whole-system runs bit-for-bit deterministic. It still skips work a
// stepped run would waste: a component that proves it is idle until a
// known cycle sleeps (see Sleeper), and when every component sleeps the
// clock jumps.
package sim

import (
	"fmt"
	mathbits "math/bits"
	"sort"
)

// Cycle is a simulated clock cycle. The whole system runs on a single clock
// domain (the paper simulates a 2.4 GHz core with DDR3-1333 memory; we fold
// the frequency ratio into the DRAM timing parameters instead of running two
// clock domains, which keeps cross-domain queues trivial).
type Cycle uint64

// Tickable is a component that advances one cycle at a time. Components are
// ticked in registration order, which the system assembler uses to fix a
// producer-before-consumer order within a cycle.
type Tickable interface {
	// Tick advances the component to the given cycle.
	Tick(now Cycle)
}

// TickFunc adapts a function to the Tickable interface.
type TickFunc func(now Cycle)

// Tick implements Tickable.
func (f TickFunc) Tick(now Cycle) { f(now) }

// NeverWake is the NextWake return value of a component with no future
// work of its own: it only acts again in response to another component
// (a request arriving on a queue, an event firing).
const NeverWake = Cycle(1<<64 - 1)

// NextWaker is the optional idle hint. A component that implements it
// promises that between now (exclusive) and NextWake(now) (exclusive)
// its Tick is a pure bulk-accountable no-op — no queue moves, no message
// is produced or consumed, no decision is taken — unless another
// component mutates it first. The kernel may then leave it untouched for
// those cycles, calling Skip (if implemented) for the span instead of
// Tick once per cycle.
//
// The contract is asymmetric. Returning an EARLY wake (any value down
// to now+1) is always correct — the component is simply ticked again,
// which is what the reference stepped mode does on every cycle.
// Returning a LATE wake is a correctness bug: the kernel would pass a
// cycle where the component wanted to act, and the run would diverge
// from a cycle-stepped one. When a component cannot cheaply bound its
// next interesting cycle it must return now+1, never a guess.
//
// Skipping engages only when every registered component implements
// NextWaker; a single hint-less component pins the kernel to
// cycle-stepped mode.
type NextWaker interface {
	// NextWake returns the earliest cycle at which the component's Tick
	// may do something observable, or NeverWake if it has no
	// self-driven future work. Values <= now mean "tick me next cycle".
	NextWake(now Cycle) Cycle
}

// Skipper is the optional bulk-accounting hook paired with NextWaker.
// For a span [from, to] (inclusive on both ends) the component was not
// ticked, the kernel calls Skip instead of Tick to-from+1 times. Skip
// must leave the component in the byte-identical state that the no-op
// Ticks would have: counters that increment every cycle advance by the
// span length, round-robin pointers rotate by it, and so on. The kernel
// may split one idle span into several consecutive Skip calls, so Skip
// must be additive. Components whose idle Tick mutates nothing at all
// need not implement Skipper.
type Skipper interface {
	Skip(from, to Cycle)
}

// Sleeper is the opt-in to per-component sleep. A Sleeper ends every
// tick that may have left it idle with Slot.Offer; if its NextWake then
// lies beyond the next cycle, the kernel stops ticking it until that wake
// cycle or until the component is woken through its Slot, whichever
// comes first, while every other component keeps ticking. A tick that
// knows it must run again next cycle (a send refused by backpressure, a
// queue still holding work) skips the offer and the NextWake call with
// it: not sleeping is always correct.
//
// In exchange the component promises to call Slot.Wake on entry to
// every method through which another component, or code outside the
// kernel, mutates state its Tick, NextWake or Skip reads while it
// sleeps: an input port's TrySend, a queue Push, a priority change, an
// event handler. The wake settles the sleep span with Skip before the
// mutation lands, so the component observes it exactly as a stepped run
// would.
type Sleeper interface {
	NextWaker
	// BindSlot hands the component its slot, or nil while the kernel
	// ticks every component (skipping disabled, or a hint-less component
	// registered). Wake and Offer on a nil slot do nothing. A Sleeper
	// registers with one kernel.
	BindSlot(s *Slot)
}

// Slot is a Sleeper's registration with its kernel: its sleep state and
// the handle it wakes itself through. Sleep state describes how the
// clock reaches the component, not where the simulation is, so it is
// never checkpointed; after Restore every component starts awake.
type Slot struct {
	k       *Kernel
	idx     int // index among the registered components
	seq     int // index among the kernel's slots
	skipper Skipper
	asleep  bool
	// settled is the last cycle the component was ticked or
	// bulk-accounted through.
	settled Cycle
}

// Offer ends a tick that may have left the component idle: the kernel
// asks its NextWake and, when that lies beyond the next cycle, parks it.
// It must be the tick's last action. Outside its own kernel's tick of
// the component — a direct Tick call, another kernel driving the
// component through a wrapper — Offer does nothing; in the all-tick
// reference mode the component holds no slot at all.
func (s *Slot) Offer() {
	if s != nil && s.k.pos == s.idx {
		s.k.offer(s)
	}
}

// Wake ends the slot's sleep: the pending span is settled with one Skip
// through the last cycle whose tick slot has already passed, and the
// component ticks again from the next slot it has not passed. Waking an
// awake slot, or a nil one, does nothing.
func (s *Slot) Wake() {
	if s != nil && s.asleep {
		s.k.wake(s)
	}
}

// Settle brings a sleeping slot's deferred accounting up to date
// without waking it: one Skip through the last cycle whose tick slot has
// passed. Code about to read state a sleeper may still owe — the shared
// request-ID counter a blocked shaper burns into — settles it first.
// Settling an awake slot, or a nil one, does nothing.
func (s *Slot) Settle() {
	if s != nil && s.asleep {
		s.k.settle(s)
	}
}

// Asleep reports whether the slot's component is sleeping.
func (s *Slot) Asleep() bool { return s != nil && s.asleep }

// EventKind is a component-defined discriminator for typed events. Kinds
// are scoped to the receiving handler: two handlers may reuse the same
// numeric kind for unrelated purposes without colliding.
type EventKind uint16

// HandlerID names an EventHandler registered with RegisterHandler. IDs are
// dense indices assigned in registration order, which makes them stable
// across a checkpoint/restore pair as long as the restoring process
// registers the same handlers in the same order — the same contract
// Register already imposes on Tickables.
type HandlerID int32

// EventHandler consumes typed events scheduled with ScheduleEvent. Events
// are plain data (kind + one argument word), not closures: they allocate
// nothing when scheduled, they cannot retain captured objects after
// firing, and — unlike closures — they serialize, so a checkpoint can be
// taken while events are pending.
type EventHandler interface {
	HandleEvent(now Cycle, kind EventKind, arg uint64)
}

// EventHandlerFunc adapts a function to the EventHandler interface.
type EventHandlerFunc func(now Cycle, kind EventKind, arg uint64)

// HandleEvent implements EventHandler.
func (f EventHandlerFunc) HandleEvent(now Cycle, kind EventKind, arg uint64) { f(now, kind, arg) }

// event is a scheduled typed event. It is plain old data — no pointers —
// so the heap never retains simulation objects and pending events can be
// written to a checkpoint verbatim.
type event struct {
	at      Cycle
	seq     uint64 // tie-break so same-cycle events fire in schedule order
	handler HandlerID
	kind    EventKind
	arg     uint64
}

// Kernel owns the clock and drives all registered components.
type Kernel struct {
	now Cycle
	// tickers holds the registered components in registration order;
	// comps, parallel to it, their optional hooks.
	tickers  []Tickable
	comps    []component
	events   eventHeap
	handlers []EventHandler
	seq      uint64
	rng      *RNG
	stopped  bool

	// Sleep state, none of it checkpointed. awake is a bitset over comps;
	// a component that is not a Sleeper never leaves it. slots lists the
	// Sleepers' slots and nAwake counts the awake ones; others lists the
	// components that are not Sleepers. wakeAt, parallel to slots, holds
	// the cycle each sleeping slot is due back (NeverWake for an awake
	// slot, or one only a wake can end). dueAt is a lower bound on its
	// minimum: a slot woken early leaves it stale, and the next scan it
	// triggers recomputes it. pos is the index of the component ticking
	// now, -1 while events fire and len(comps) between cycles: a slot
	// below pos has had its tick slot for the current cycle.
	awake        []uint64
	slots        []*Slot
	wakeAt       []Cycle
	nAwake       int
	others       []int
	dueAt        Cycle
	pos          int
	allHinted    bool
	fastDisabled bool
	// sleepy caches !fastDisabled && allHinted: whether components may
	// sleep and the clock may jump. Sleepers hold their slots only while
	// it is set.
	sleepy bool

	// skipped and jumps are observability-only: they describe how the
	// clock advanced, not where it is, so they are deliberately absent
	// from Snapshot — a fast-path run and a stepped run must produce
	// byte-identical checkpoints.
	skipped Cycle
	jumps   uint64
}

// component holds a registered Tickable's optional hooks.
type component struct {
	waker   NextWaker // nil when the component gives no hint
	skipper Skipper   // nil when it needs no bulk accounting
	slot    *Slot     // nil unless it is a Sleeper
}

// NewKernel returns a kernel whose random source is seeded with seed.
// The same seed always reproduces the same simulation.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{rng: NewRNG(seed), allHinted: true, sleepy: true, dueAt: NeverWake}
}

// Now returns the current cycle.
func (k *Kernel) Now() Cycle { return k.now }

// RNG returns the kernel's deterministic random source. All simulation
// randomness (fake-request addresses, GA mutation, workload generation)
// must flow through it.
func (k *Kernel) RNG() *RNG { return k.rng }

// Register adds a component to the per-cycle tick list. Components tick in
// registration order. Components implementing NextWaker (and optionally
// Skipper) opt in to idle skipping, Sleepers additionally to sleeping
// while others tick; one component without the hint keeps the whole
// kernel cycle-stepped.
func (k *Kernel) Register(c Tickable) {
	if c == nil {
		panic("sim: Register(nil)")
	}
	k.wakeAll()
	i := len(k.comps)
	var e component
	e.waker, _ = c.(NextWaker)
	e.skipper, _ = c.(Skipper)
	if _, ok := c.(Sleeper); ok {
		e.slot = &Slot{k: k, idx: i, seq: len(k.slots), skipper: e.skipper, settled: k.now}
		k.slots = append(k.slots, e.slot)
		k.wakeAt = append(k.wakeAt, NeverWake)
		k.nAwake++
	} else {
		k.others = append(k.others, i)
	}
	k.comps = append(k.comps, e)
	k.tickers = append(k.tickers, c)
	if i>>6 == len(k.awake) {
		k.awake = append(k.awake, 0)
	}
	k.awake[i>>6] |= 1 << (i & 63)
	k.pos = len(k.comps)
	if e.waker == nil {
		k.allHinted = false
	}
	k.setSleepy()
}

// setSleepy recomputes whether components may sleep and hands every
// Sleeper its slot accordingly: a nil slot while they may not, so the
// all-tick mode pays only a nil check at each wake and offer site.
func (k *Kernel) setSleepy() {
	k.sleepy = !k.fastDisabled && k.allHinted
	for _, s := range k.slots {
		sl := k.tickers[s.idx].(Sleeper)
		if k.sleepy {
			sl.BindSlot(s)
		} else {
			sl.BindSlot(nil)
		}
	}
}

// RegisterHandler adds an event handler and returns its ID. Like Register,
// call order defines the ID, so a restored process must register handlers
// in the construction order of the process that wrote the checkpoint.
func (k *Kernel) RegisterHandler(h EventHandler) HandlerID {
	if h == nil {
		panic("sim: RegisterHandler(nil)")
	}
	k.handlers = append(k.handlers, h)
	return HandlerID(len(k.handlers) - 1)
}

// ScheduleEvent delivers (kind, arg) to handler at cycle at. Scheduling in
// the past (or present) panics: it would silently never fire and always
// indicates a component bug.
func (k *Kernel) ScheduleEvent(at Cycle, handler HandlerID, kind EventKind, arg uint64) {
	if at <= k.now {
		panic(fmt.Sprintf("sim: ScheduleEvent at cycle %d but now is %d", at, k.now))
	}
	if handler < 0 || int(handler) >= len(k.handlers) {
		panic(fmt.Sprintf("sim: ScheduleEvent with unregistered handler %d", handler))
	}
	k.seq++
	k.events.push(event{at: at, seq: k.seq, handler: handler, kind: kind, arg: arg})
}

// ScheduleEventAfter delivers (kind, arg) to handler delay cycles from now.
// delay must be positive.
func (k *Kernel) ScheduleEventAfter(delay Cycle, handler HandlerID, kind EventKind, arg uint64) {
	k.ScheduleEvent(k.now+delay, handler, kind, arg)
}

// Stop makes the current Run return after the cycle in progress completes.
func (k *Kernel) Stop() { k.stopped = true }

// Step advances the simulation by exactly one cycle: the clock
// increments, due events fire (in schedule order), then every awake
// component ticks.
func (k *Kernel) Step() {
	k.step()
	k.Settle()
}

func (k *Kernel) step() {
	k.now++
	k.pos = -1
	for len(k.events) > 0 && k.events[0].at <= k.now {
		ev := k.events.pop()
		k.handlers[ev.handler].HandleEvent(k.now, ev.kind, ev.arg)
	}
	n := len(k.comps)
	if !k.sleepy {
		// No component holds a slot, so nothing reads pos until the
		// cycle is over.
		for _, c := range k.tickers {
			c.Tick(k.now)
		}
		k.pos = n
		return
	}
	if k.now >= k.dueAt {
		k.dueAt = k.wakeDue()
	}
	// The scan re-reads each bitset word after every tick: a wake sets a
	// bit ahead of it, so a component woken by an earlier one ticks in
	// its own slot of the same cycle.
	for w := range k.awake {
		for bits := k.awake[w]; bits != 0; {
			b := mathbits.TrailingZeros64(bits)
			i := w<<6 + b
			k.pos = i
			k.tickers[i].Tick(k.now)
			bits = k.awake[w] &^ (1<<(b+1) - 1)
		}
	}
	k.pos = n
}

// wakeDue wakes every sleeping slot due at or before the current cycle
// and returns the earliest wakeAt among those still asleep.
func (k *Kernel) wakeDue() Cycle {
	next := NeverWake
	for i, at := range k.wakeAt {
		if at <= k.now {
			k.wake(k.slots[i])
		} else if at < next {
			next = at
		}
	}
	return next
}

// offer parks s until its NextWake if that lies beyond the next cycle.
func (k *Kernel) offer(s *Slot) {
	if at := k.comps[s.idx].waker.NextWake(k.now); at > k.now+1 {
		k.sleep(s, at)
	}
}

// sleep parks s after its tick at the current cycle until cycle at.
func (k *Kernel) sleep(s *Slot, at Cycle) {
	s.asleep = true
	k.wakeAt[s.seq] = at
	s.settled = k.now
	k.awake[s.idx>>6] &^= 1 << (s.idx & 63)
	k.nAwake--
	if at < k.dueAt {
		k.dueAt = at
	}
}

// wake settles s's sleep span and returns it to the tick list.
func (k *Kernel) wake(s *Slot) {
	k.settle(s)
	s.asleep = false
	k.wakeAt[s.seq] = NeverWake
	k.awake[s.idx>>6] |= 1 << (s.idx & 63)
	k.nAwake++
}

// settle bulk-accounts a sleeping s through the last cycle whose tick
// slot has passed: the current cycle once the scan has moved beyond s,
// the previous one otherwise.
func (k *Kernel) settle(s *Slot) {
	to := k.now
	if s.idx >= k.pos {
		to--
	}
	if to > s.settled {
		if s.skipper != nil {
			s.skipper.Skip(s.settled+1, to)
		}
		s.settled = to
	}
}

// Settle brings every sleeping component's deferred accounting up to
// date without waking it, so the simulation state reads exactly as a
// stepped run's. Observation points call it: the return of Run, Advance
// and Step, RunUntil before each predicate, Snapshot, and the invariant
// monitor before its checks.
func (k *Kernel) Settle() {
	if k.nAwake == len(k.slots) {
		return
	}
	for _, s := range k.slots {
		if s.asleep {
			k.settle(s)
		}
	}
}

// wakeAll settles and wakes every sleeping component.
func (k *Kernel) wakeAll() {
	for _, s := range k.slots {
		if s.asleep {
			k.wake(s)
		}
	}
}

// resetSleep marks every component awake with nothing to settle: the
// state a checkpoint restores is already complete.
func (k *Kernel) resetSleep() {
	for i := range k.comps {
		k.awake[i>>6] |= 1 << (i & 63)
	}
	for i, s := range k.slots {
		s.asleep, s.settled = false, k.now
		k.wakeAt[i] = NeverWake
	}
	k.nAwake = len(k.slots)
	k.dueAt = NeverWake
}

// SetFastPath enables or disables idle skipping (enabled by default
// when every registered component implements NextWaker). Disabling wakes
// every sleeping component and forces classic cycle-by-cycle stepping of
// all components — the reference mode the differential tests compare
// against.
func (k *Kernel) SetFastPath(on bool) {
	if !on {
		k.wakeAll()
	}
	k.fastDisabled = !on
	k.setSleepy()
}

// FastPathEligible reports whether idle skipping can engage: it is not
// disabled and every registered component provides a wake hint.
func (k *Kernel) FastPathEligible() bool { return k.sleepy }

// SkippedCycles returns how many cycles the clock has jumped over with
// every component idle, over the kernel's lifetime. Observability only —
// not checkpoint state.
func (k *Kernel) SkippedCycles() Cycle { return k.skipped }

// Jumps returns how many clock jumps the kernel has taken.
// Observability only — not checkpoint state.
func (k *Kernel) Jumps() uint64 { return k.jumps }

// Advance moves the simulation forward by at most limit cycles and
// returns how many it covered. When every Sleeper is asleep and every
// other component reports its next wake beyond now+1 (and no event is
// due sooner), the clock jumps straight to the cycle before the earliest
// wake — the non-Sleepers get one Skip for the span, the Sleepers settle
// theirs lazily — and then steps the wake cycle itself. Otherwise it
// takes a single Step. Either way the resulting state is byte-identical
// to stepping every cycle.
func (k *Kernel) Advance(limit Cycle) Cycle {
	n := k.advance(limit)
	k.Settle()
	return n
}

func (k *Kernel) advance(limit Cycle) Cycle {
	if limit == 0 {
		return 0
	}
	if k.sleepy && k.nAwake == 0 {
		end := k.now + limit
		k.dueAt = k.wakeDue()
		w := k.dueAt
		if len(k.events) > 0 && k.events[0].at < w {
			w = k.events[0].at
		}
		if w > end+1 {
			w = end + 1
		}
		for _, i := range k.others {
			if w <= k.now+1 {
				break
			}
			if c := k.comps[i].waker.NextWake(k.now); c < w {
				w = c
			}
		}
		if w > k.now+1 {
			from, target := k.now+1, w-1
			for _, i := range k.others {
				if sk := k.comps[i].skipper; sk != nil {
					sk.Skip(from, target)
				}
			}
			n := target - k.now
			k.now = target
			k.skipped += n
			k.jumps++
			if k.now >= end {
				return n
			}
			k.step()
			return n + 1
		}
	}
	k.step()
	return 1
}

// Run advances the simulation n cycles, or fewer if Stop is called.
// It returns the number of cycles actually simulated (skipped idle
// cycles count: they were simulated, just in bulk).
func (k *Kernel) Run(n Cycle) Cycle {
	k.stopped = false
	var done Cycle
	for done < n && !k.stopped {
		done += k.advance(n - done)
	}
	k.Settle()
	return done
}

// RunUntil steps the simulation until pred returns true, Stop is
// called, or limit cycles have elapsed, and reports whether pred was
// satisfied. Like Run it honors Stop: a watchdog or checker calling
// Stop mid-cycle ends the loop after that cycle completes. It never
// jumps the clock — pred may observe any intermediate state, so the
// kernel must not pass cycles where it could flip — and settles every
// sleeper before each evaluation.
func (k *Kernel) RunUntil(pred func() bool, limit Cycle) bool {
	k.stopped = false
	for i := Cycle(0); i < limit && !k.stopped; i++ {
		k.Settle()
		if pred() {
			return true
		}
		k.step()
	}
	k.Settle()
	return pred()
}

// PendingEvents reports how many scheduled events have not yet fired.
func (k *Kernel) PendingEvents() int { return len(k.events) }

// eventHeap is a binary min-heap ordered by (at, seq). It is hand-rolled
// rather than using container/heap to avoid interface boxing on the
// simulator's hottest path.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	// Events are plain data, so the vacated tail slot retains nothing;
	// zeroing it is cheap insurance against stale entries confusing a
	// debugger. (When events held closures this zeroing was a correctness
	// fix — a popped closure stayed reachable through the backing array.)
	old[n] = event{}
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h).less(l, smallest) {
			smallest = l
		}
		if r < n && (*h).less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// sortedEventCycles returns the cycles of all pending events in firing order.
// It exists for tests and debugging.
func (k *Kernel) sortedEventCycles() []Cycle {
	out := make([]Cycle, len(k.events))
	for i, ev := range k.events {
		out[i] = ev.at
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
