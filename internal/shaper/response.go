package shaper

import (
	"camouflage/internal/mem"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// PriorityElevator is the memory controller interface the response shaper
// uses to accelerate a lagging core: raise core's scheduling priority to
// level until cycle until. It is implemented by memctrl.Controller.
type PriorityElevator interface {
	Elevate(core, level int, until sim.Cycle)
}

// ElevatedPriority is the priority level granted by response-shaper
// warnings; per the paper the memory scheduler gives the affected
// application priority "in proportion to the number of unused credits",
// which is added on top of this base.
const ElevatedPriority = 10

// ResponseShaper is Response Camouflage (RespC): it sits at the memory
// controller's egress for one core and shapes the inter-arrival times of
// that core's responses. Throttling buffers responses in the response
// queue (Figure 6); acceleration works two ways — a warning to the memory
// scheduler asking for elevated priority proportional to the unused
// credits, and fake responses generated when no real response is pending.
type ResponseShaper struct {
	core int
	bins *binCore
	// queue is the response queue of Figure 6; its bound backpressures
	// the controller egress, which in turn holds DRAM banks busy.
	queue *mem.Queue
	out   mem.RespPort
	// outFull mirrors RequestShaper.outFull: when the output port exposes
	// fullness, a congested cycle burns the fake's draws without the
	// construct-then-reject round trip.
	outFull interface{ Full() bool }
	mc      PriorityElevator
	rng     *sim.RNG

	ids *mem.IDs

	// pool, when set, supplies fake responses and takes back fakes the
	// NoC refused at admission. Nil keeps plain allocation.
	pool *mem.Pool

	// slot is the shaper's kernel slot; arrivals and reconfiguration
	// wake it.
	slot *sim.Slot

	// Intrinsic records responses as the controller produced them; Shaped
	// records what the core (the adversary) observes.
	Intrinsic *stats.InterArrivalRecorder
	Shaped    *stats.InterArrivalRecorder
}

// NewResponseShaper returns a RespC instance for core. queueCap bounds the
// response queue; out is the response NoC injection port; mc receives
// priority warnings (nil disables acceleration-by-priority).
func NewResponseShaper(core int, cfg Config, queueCap int, out mem.RespPort, mc PriorityElevator, rng *sim.RNG, ids *mem.IDs) (*ResponseShaper, error) {
	bins, err := newBinCore(cfg, rng)
	if err != nil {
		return nil, err
	}
	full, _ := out.(interface{ Full() bool })
	return &ResponseShaper{
		core:      core,
		bins:      bins,
		queue:     mem.NewQueue(queueCap),
		out:       out,
		outFull:   full,
		mc:        mc,
		rng:       rng,
		ids:       ids,
		Intrinsic: stats.NewInterArrivalRecorder(cfg.Binning, false),
		Shaped:    stats.NewInterArrivalRecorder(cfg.Binning, false),
	}, nil
}

// SetPool makes the shaper draw fake responses from pool and return
// admission-rejected fakes to it. A nil pool (the default) keeps plain
// allocation.
func (s *ResponseShaper) SetPool(pool *mem.Pool) { s.pool = pool }

// Config returns the active configuration.
func (s *ResponseShaper) Config() Config { return s.bins.cfg.Clone() }

// Reconfigure installs a new bin configuration, preserving queued
// responses and lifetime statistics. An invalid configuration is rejected
// without touching the running shaper.
func (s *ResponseShaper) Reconfigure(cfg Config) error {
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
func (s *ResponseShaper) Stats() Stats { return s.bins.stats }

// CheckConservation verifies the credit ledger invariants (see binCore).
func (s *ResponseShaper) CheckConservation() error { return s.bins.checkConservation() }

// QueueLen returns the number of buffered responses.
func (s *ResponseShaper) QueueLen() int { return s.queue.Len() }

// ForEachRequest visits every buffered response awaiting release.
// Checkpoint restore uses it to rebuild MSHR aliasing.
func (s *ResponseShaper) ForEachRequest(fn func(*mem.Request)) { s.queue.ForEach(fn) }

// CreditBalance returns the live credits remaining in the current window.
func (s *ResponseShaper) CreditBalance() int { return s.bins.liveCredits() }

// FakeCreditBalance returns the banked credits backing the fake-response
// generator.
func (s *ResponseShaper) FakeCreditBalance() int { return s.bins.unusedCredits() }

// TargetPMF returns the configured release distribution (see
// binCore.targetPMF).
func (s *ResponseShaper) TargetPMF() []float64 { return s.bins.targetPMF() }

// DistributionDrift returns the L1 distance between the emitted response
// inter-arrival distribution and the configured target (see
// RequestShaper.DistributionDrift).
func (s *ResponseShaper) DistributionDrift() float64 {
	return distributionDrift(s.Shaped, s.bins)
}

// TrySend implements mem.RespPort: the memory controller egress delivers
// completed transactions here. A full response queue refuses delivery,
// which stalls controller retirement (the return-channel overflow
// prevention the paper mentions).
func (s *ResponseShaper) TrySend(now sim.Cycle, resp *mem.Request) bool {
	if !s.queue.Push(resp) {
		return false
	}
	s.Intrinsic.Observe(now)
	s.bins.noteArrival()
	return true
}

// BindSlot implements sim.Sleeper: an arrival (a Push into the queue
// TrySend feeds) and Reconfigure wake the shaper.
func (s *ResponseShaper) BindSlot(slot *sim.Slot) {
	s.slot = slot
	s.queue.SetWake(slot)
}

// NextWake implements sim.NextWaker (see binCore.nextWake). The
// replenishment clamp also covers the priority-warning side effect:
// Elevate fires only on replenishment cycles, which are never skipped.
func (s *ResponseShaper) NextWake(now sim.Cycle) sim.Cycle {
	return s.bins.nextWake(now, s.queue.Peek() != nil)
}

// Tick advances the shaper: on replenishment, unused credits trigger a
// priority warning to the memory scheduler; then at most one response is
// released — a buffered real response if credited, else a fake response.
// A tick whose release the NoC refused retries next cycle; any other may
// leave the shaper idle, so it offers to sleep.
func (s *ResponseShaper) Tick(now sim.Cycle) {
	if !s.release(now) {
		s.slot.Offer()
	}
}

// release performs one tick's work and reports whether an admitted
// release was refused downstream and must be retried.
func (s *ResponseShaper) release(now sim.Cycle) (retry bool) {
	if s.bins.periodic() {
		return s.releasePeriodic(now)
	}
	if replenished, unused := s.bins.maybeReplenish(now); replenished && unused > 0 && s.mc != nil {
		// Ask the scheduler to accelerate this core in proportion to how
		// far its response rate fell below the target distribution.
		s.mc.Elevate(s.core, ElevatedPriority+unused, now+s.bins.cfg.Window)
		s.bins.stats.WarningsSent++
	}
	if s.bins.cfg.Policy == PolicyOblivious {
		return s.releaseOblivious(now)
	}

	if head := s.queue.Peek(); head != nil {
		bin, ok := s.bins.releaseBin(now)
		if !ok {
			return false
		}
		head.RespShaped = now
		if !s.out.TrySend(now, head) {
			return true
		}
		s.queue.Pop()
		s.bins.commitReal(now, bin)
		s.bins.stats.DelayedCycles += uint64(now - head.ReadyAt)
		s.Shaped.Observe(now)
		return false
	}

	bin, ok := s.bins.fakeBin(now)
	if !ok {
		return false
	}
	if s.outFull != nil && s.outFull.Full() {
		s.burnFakeDraw()
		return true
	}
	fake := s.newFakeResponse(now)
	if !s.out.TrySend(now, fake) {
		// Admission refused: reclaim the object. The ID and RNG draws
		// stay burnt so the retry schedule is byte-identical.
		s.pool.Put(fake)
		return true
	}
	s.bins.commitFake(now, bin)
	s.Shaped.Observe(now)
	return false
}

// releaseOblivious implements PolicyOblivious for responses: the release
// schedule is a renewal process drawn from the configured distribution,
// filled by a buffered real response when available, else a fake one.
func (s *ResponseShaper) releaseOblivious(now sim.Cycle) (retry bool) {
	if !s.bins.obliviousDue(now) {
		return false
	}
	if head := s.queue.Peek(); head != nil {
		head.RespShaped = now
		if !s.out.TrySend(now, head) {
			return true
		}
		s.queue.Pop()
		s.bins.stats.DelayedCycles += uint64(now - head.ReadyAt)
		s.bins.commitOblivious(now, false)
		s.Shaped.Observe(now)
		return false
	}
	if s.bins.cfg.GenerateFake {
		if s.outFull != nil && s.outFull.Full() {
			s.burnFakeDraw()
			return true
		}
		fake := s.newFakeResponse(now)
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

// releasePeriodic is the strictly periodic (CS) mode for responses: one
// release opportunity per interval, filled by a buffered response or a
// fake one.
func (s *ResponseShaper) releasePeriodic(now sim.Cycle) (retry bool) {
	s.bins.maybeEpochSwitch(now)
	if !s.bins.slotOpen(now) {
		return false
	}
	if head := s.queue.Peek(); head != nil {
		head.RespShaped = now
		if !s.out.TrySend(now, head) {
			return true
		}
		s.queue.Pop()
		s.bins.markReal(now)
		s.bins.stats.DelayedCycles += uint64(now - head.ReadyAt)
		s.Shaped.Observe(now)
		s.bins.closeSlot(now)
		return false
	}
	if s.bins.cfg.GenerateFake {
		if s.outFull != nil && s.outFull.Full() {
			s.burnFakeDraw()
			return true
		}
		fake := s.newFakeResponse(now)
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
// constructing a fake response would (see RequestShaper.burnFakeDraw).
func (s *ResponseShaper) burnFakeDraw() {
	s.ids.Burn(1)
	s.rng.Uint64n(FakeAddressSpace / mem.LineSize)
}

func (s *ResponseShaper) newFakeResponse(now sim.Cycle) *mem.Request {
	fake := s.pool.Get()
	fake.ID = s.ids.Next()
	fake.Core = s.core
	fake.Addr = s.rng.Uint64n(FakeAddressSpace/mem.LineSize) * mem.LineSize
	fake.Op = mem.Read
	fake.Fake = true
	fake.CreatedAt = now
	fake.ReadyAt = now
	fake.RespShaped = now
	return fake
}
