package shaper

import (
	"camouflage/internal/mem"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// FakeAddressSpace bounds the random line addresses fake traffic touches.
// Fake requests are non-cached reads scattered across memory so they look
// like ordinary misses on the bus and in DRAM.
const FakeAddressSpace = 1 << 32

// RequestShaper is Request Camouflage (ReqC): it sits between a core's LLC
// miss stream and the shared channel, transforming the core's intrinsic
// request inter-arrival distribution into the configured one. Real traffic
// beyond the distribution is delayed (backpressure stalls the core);
// shortfall is filled with fake requests generated from the previous
// window's unused credits.
type RequestShaper struct {
	core int
	bins *binCore
	in   *mem.Queue
	out  mem.ReqPort
	// outSpace, when the output port refuses only when full and wakes a
	// refused sender (the NoC input queue does), lets congested cycles
	// burn a fake's ID and address draw without constructing the
	// request — admission is known to fail, and the draws alone keep the
	// retry schedule byte-identical with the construct-then-reject path —
	// and lets a credit-mode shaper sleep while the output is full.
	outSpace mem.SpacePort
	rng      *sim.RNG

	ids *mem.IDs

	// pool, when set, supplies fake requests and takes back fakes the
	// NoC refused at admission. Nil keeps plain allocation.
	pool *mem.Pool

	// slot is the shaper's kernel slot; arrivals and reconfiguration
	// wake it.
	slot *sim.Slot

	// Intrinsic records the distribution offered by the core; Shaped
	// records the distribution visible on the bus. The mutual-information
	// probe compares them.
	Intrinsic *stats.InterArrivalRecorder
	Shaped    *stats.InterArrivalRecorder
}

// NewRequestShaper returns a ReqC instance for core. inCap bounds the
// input queue (backpressure depth, typically the MSHR count); out is the
// NoC injection port; ids supplies IDs for fake requests. The
// configuration is validated; an invalid one is a user input error, not a
// panic.
func NewRequestShaper(core int, cfg Config, inCap int, out mem.ReqPort, rng *sim.RNG, ids *mem.IDs) (*RequestShaper, error) {
	bins, err := newBinCore(cfg, rng)
	if err != nil {
		return nil, err
	}
	space, _ := out.(mem.SpacePort)
	return &RequestShaper{
		core:      core,
		bins:      bins,
		in:        mem.NewQueue(inCap),
		out:       out,
		outSpace:  space,
		rng:       rng,
		ids:       ids,
		Intrinsic: stats.NewInterArrivalRecorder(cfg.Binning, false),
		Shaped:    stats.NewInterArrivalRecorder(cfg.Binning, false),
	}, nil
}

// SetPool makes the shaper draw fake requests from pool and return
// admission-rejected fakes to it. A nil pool (the default) keeps plain
// allocation.
func (s *RequestShaper) SetPool(pool *mem.Pool) { s.pool = pool }

// Config returns the active configuration.
func (s *RequestShaper) Config() Config { return s.bins.cfg.Clone() }

// Reconfigure installs a new bin configuration (the hypervisor writing the
// control registers; the online GA uses this between children). Credit
// state resets; queued traffic is preserved. An invalid configuration is
// rejected without touching the running shaper.
func (s *RequestShaper) Reconfigure(cfg Config) error {
	bins, err := newBinCore(cfg, s.rng)
	if err != nil {
		return err
	}
	s.slot.Wake()
	bins.stats = s.bins.stats
	s.bins = bins
	return nil
}

// Stats returns shaper counters.
func (s *RequestShaper) Stats() Stats { return s.bins.stats }

// CheckConservation verifies the credit ledger invariants (see binCore).
// The runtime invariant monitor calls it periodically.
func (s *RequestShaper) CheckConservation() error { return s.bins.checkConservation() }

// QueueLen returns the number of requests awaiting release.
func (s *RequestShaper) QueueLen() int { return s.in.Len() }

// ForEachRequest visits every queued request awaiting release.
// Checkpoint restore uses it to rebuild MSHR aliasing.
func (s *RequestShaper) ForEachRequest(fn func(*mem.Request)) { s.in.ForEach(fn) }

// CreditBalance returns the live credits remaining in the current window.
func (s *RequestShaper) CreditBalance() int { return s.bins.liveCredits() }

// FakeCreditBalance returns the banked credits backing the fake-traffic
// generator.
func (s *RequestShaper) FakeCreditBalance() int { return s.bins.unusedCredits() }

// TargetPMF returns the configured release distribution (see
// binCore.targetPMF).
func (s *RequestShaper) TargetPMF() []float64 { return s.bins.targetPMF() }

// DistributionDrift returns the L1 distance between the emitted (bus
// visible) inter-arrival distribution and the configured target — the
// paper's core security metric: a drift of 0 means the bus shows exactly
// the configured distribution; 2 is maximal divergence. Returns 0 until
// the shaper has released anything.
func (s *RequestShaper) DistributionDrift() float64 {
	return distributionDrift(s.Shaped, s.bins)
}

// TrySend implements mem.ReqPort: the core offers its misses here. A full
// queue is the stall signal.
func (s *RequestShaper) TrySend(now sim.Cycle, req *mem.Request) bool {
	if !s.in.Push(req) {
		return false
	}
	s.Intrinsic.Observe(now)
	s.bins.noteArrival()
	return true
}

// BindSlot implements sim.Sleeper: an arrival (a Push into the queue
// TrySend feeds) and Reconfigure wake the shaper.
func (s *RequestShaper) BindSlot(slot *sim.Slot) {
	s.slot = slot
	s.in.SetWake(slot)
}

// NextWake implements sim.NextWaker: the next replenishment, slot,
// epoch boundary or credit-admitted release cycle (see binCore.nextWake).
// A credit-mode shaper whose output is full sleeps until replenishment:
// until then every tick is a no-op or a refused retry, Skip replays the
// retries, and the Pop that frees space wakes it.
func (s *RequestShaper) NextWake(now sim.Cycle) sim.Cycle {
	if s.blocked() {
		return s.bins.nextReplenish
	}
	return s.bins.nextWake(now, s.in.Peek() != nil)
}

// blocked reports whether the shaper is a credit-mode shaper facing a
// full output. The periodic and oblivious modes keep retrying every
// cycle.
func (s *RequestShaper) blocked() bool {
	return s.outSpace != nil && !s.bins.periodic() && s.bins.cfg.Policy != PolicyOblivious && s.outSpace.Full()
}

// Skip implements sim.Skipper. Only a blocked span has anything to
// account: the refused retries of its admitted cycles. A real head was
// stamped with each retry's cycle, so it keeps the last; a fake retry
// burned one ID and one address draw (one RNG value, see burnFakeDraw)
// each. No other component fills the output, so a shaper that slept
// unblocked has no admitted cycle in its span, and one that slept
// blocked stayed blocked until woken.
func (s *RequestShaper) Skip(from, to sim.Cycle) {
	if !s.blocked() {
		return
	}
	if head := s.in.Peek(); head != nil {
		if n, last := s.bins.admitted(from, to, false); n > 0 {
			head.ShapedAt = last
		}
		return
	}
	if n, _ := s.bins.admitted(from, to, true); n > 0 {
		s.ids.Burn(n)
		s.rng.Skip(n)
	}
}

// Tick advances the shaper: replenish if due, then release at most one
// transaction — a credited real request if one is pending, else a fake
// request if the generator owes traffic (fake traffic has strictly lower
// priority and only fires on cycles with no real request, §III-A2).
// In strict periodic mode (the CS baseline) releases happen only at slot
// boundaries. A blocked tick asks the output to wake it on space and,
// owing burns while it sleeps without a real head, registers with the ID
// counter, then offers to sleep. Any other refused tick retries next
// cycle; the rest may leave the shaper idle, so they offer.
func (s *RequestShaper) Tick(now sim.Cycle) {
	retry := s.release(now)
	if s.slot != nil && s.blocked() {
		s.outSpace.WakeOnSpace(s.slot)
		if s.in.Peek() == nil {
			s.ids.Owe(s.slot)
		}
		s.slot.Offer()
		return
	}
	if !retry {
		s.slot.Offer()
	}
}

// release performs one tick's release decision and reports whether an
// admitted release was refused downstream and must be retried.
func (s *RequestShaper) release(now sim.Cycle) (retry bool) {
	if s.bins.periodic() {
		return s.releasePeriodic(now)
	}
	s.bins.maybeReplenish(now)
	if s.bins.cfg.Policy == PolicyOblivious {
		return s.releaseOblivious(now)
	}

	if head := s.in.Peek(); head != nil {
		bin, ok := s.bins.releaseBin(now)
		if !ok {
			return false
		}
		head.ShapedAt = now
		if !s.out.TrySend(now, head) {
			return true // downstream full; retry without consuming the credit
		}
		s.in.Pop()
		s.bins.commitReal(now, bin)
		s.bins.stats.DelayedCycles += uint64(now - head.CreatedAt)
		s.Shaped.Observe(now)
		return false
	}

	bin, ok := s.bins.fakeBin(now)
	if !ok {
		return false
	}
	if s.outSpace != nil && s.outSpace.Full() {
		s.burnFakeDraw()
		return true
	}
	fake := s.newFake(now)
	if !s.out.TrySend(now, fake) {
		// The NoC refused admission. The ID increment and RNG draw have
		// already happened — they must, to keep golden outputs
		// byte-identical with the retry that follows — so only the
		// request object itself is reclaimed.
		s.pool.Put(fake)
		return true
	}
	s.bins.commitFake(now, bin)
	s.Shaped.Observe(now)
	return false
}

// releaseOblivious implements PolicyOblivious: at each scheduled release
// point, send the pending real request if there is one, else a fake
// request, else let the slot lapse.
func (s *RequestShaper) releaseOblivious(now sim.Cycle) (retry bool) {
	if !s.bins.obliviousDue(now) {
		return false
	}
	if head := s.in.Peek(); head != nil {
		head.ShapedAt = now
		if !s.out.TrySend(now, head) {
			return true // retry; the slot stays open
		}
		s.in.Pop()
		s.bins.stats.DelayedCycles += uint64(now - head.CreatedAt)
		s.bins.commitOblivious(now, false)
		s.Shaped.Observe(now)
		return false
	}
	if s.bins.cfg.GenerateFake {
		if s.outSpace != nil && s.outSpace.Full() {
			s.burnFakeDraw()
			return true
		}
		fake := s.newFake(now)
		if !s.out.TrySend(now, fake) {
			s.pool.Put(fake)
			return true
		}
		s.bins.commitOblivious(now, true)
		s.Shaped.Observe(now)
		return false
	}
	s.bins.lapseOblivious(now)
	return false
}

// releasePeriodic implements the strictly periodic constant-rate shaper: one
// release opportunity per interval, filled by a pending real request, else
// by a fake request when fake generation is on, else lapsing.
func (s *RequestShaper) releasePeriodic(now sim.Cycle) (retry bool) {
	s.bins.maybeEpochSwitch(now)
	if !s.bins.slotOpen(now) {
		return false
	}
	if head := s.in.Peek(); head != nil {
		head.ShapedAt = now
		if !s.out.TrySend(now, head) {
			return true // keep the slot open and retry
		}
		s.in.Pop()
		s.bins.markReal(now)
		s.bins.stats.DelayedCycles += uint64(now - head.CreatedAt)
		s.Shaped.Observe(now)
		s.bins.closeSlot(now)
		return false
	}
	if s.bins.cfg.GenerateFake {
		if s.outSpace != nil && s.outSpace.Full() {
			s.burnFakeDraw()
			return true
		}
		fake := s.newFake(now)
		if !s.out.TrySend(now, fake) {
			s.pool.Put(fake)
			return true
		}
		s.bins.markFake(now)
		s.Shaped.Observe(now)
	}
	s.bins.closeSlot(now)
	return false
}

// burnFakeDraw consumes exactly the ID increment and address draw that
// constructing a fake would. Congested cycles where the output queue is
// observably full take this path instead of the construct-then-reject
// round trip; the burned draws keep the eventual retry byte-identical.
func (s *RequestShaper) burnFakeDraw() {
	s.ids.Burn(1)
	s.rng.Uint64n(FakeAddressSpace / mem.LineSize)
}

func (s *RequestShaper) newFake(now sim.Cycle) *mem.Request {
	fake := s.pool.Get()
	fake.ID = s.ids.Next()
	fake.Core = s.core
	fake.Addr = s.rng.Uint64n(FakeAddressSpace/mem.LineSize) * mem.LineSize
	fake.Op = mem.Read
	fake.Fake = true
	fake.CreatedAt = now
	fake.ShapedAt = now
	return fake
}
