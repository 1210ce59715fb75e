package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"camouflage/internal/core"
	"camouflage/internal/sim"
)

// A traced run measures each simulator layer from outside. It
// rebuilds the system's tick list on a fresh kernel, with every
// component behind a thin wrapper that forwards Tick, NextWake and Skip,
// so the real sim.Kernel still makes every fast-path decision and the
// simulated state stays identical to an untraced run.
//
// Every tick is counted. On sampled cycles each tick is also timed by
// two clock reads around it, and a third read right after gives the cost
// of an empty read pair: the timer floor, tens of ns, as much as a whole
// idle tick. Its mean is subtracted from the tick timings. Measuring it
// beside every timed tick, rather than once up front, keeps it under the
// same host and cache conditions. The sampled
// cycles are chosen by a seeded random gap between stepped cycles: a
// fixed stride could alias with a component's own period (the monitor
// checks every 1024 cycles) and report its cost many times over.

// meanSampleGap is the mean number of stepped cycles between two timed
// cycles.
const meanSampleGap = 37

// layerStats accumulates one layer's ticks over the measured phase.
type layerStats struct {
	ticks uint64
	// noops counts ticks whose component, asked NextWake just before the
	// tick, promised no work that cycle.
	noops        uint64
	sampledTicks uint64
	sampledNs    int64
}

// tracer holds the per-layer counters of every traced repetition of one
// run.
type tracer struct {
	on        bool
	cycle     sim.Cycle // cycle of the last tick seen
	countdown int       // stepped cycles until the next timed one
	sampling  bool      // whether the current cycle is timed
	rng       *rand.Rand
	layers    []layerStats // indexed like simLayers
	// wakePolls counts the kernel's NextWake calls through the wrappers.
	wakePolls uint64
	// floorNs sums the empty read pairs, one per sampled tick.
	floorNs int64
}

func newTracer(seed uint64) *tracer {
	tr := &tracer{
		rng:    rand.New(rand.NewPCG(seed, 0x5a4d91e)),
		layers: make([]layerStats, len(simLayers)),
	}
	tr.countdown = tr.gap()
	return tr
}

// gap draws the number of stepped cycles to the next timed cycle,
// uniform on [1, 2*meanSampleGap-1].
func (tr *tracer) gap() int { return 1 + tr.rng.IntN(2*meanSampleGap-1) }

// epoch anchors monoNs.
var epoch = time.Now()

// monoNs reads the monotonic clock alone (time.Now also reads the wall
// clock), in ns since epoch.
func monoNs() int64 { return int64(time.Since(epoch)) }

// floor is the mean cost of an empty read pair beside the sampled ticks.
func (tr *tracer) floor() float64 {
	var n uint64
	for _, l := range tr.layers {
		n += l.sampledTicks
	}
	return ratio(float64(tr.floorNs), float64(n))
}

func layerIndex(name string) int {
	for i, l := range simLayers {
		if l == name {
			return i
		}
	}
	panic("perfbench: unknown layer " + name)
}

// attach registers sys's components, wrapped, on a fresh kernel in the
// tick order of core.NewSystem (cores, request shapers, request link,
// then per channel the DRAM channel and its controller, response
// shapers, response link) followed by the monitor EnableChecks adds, and
// re-points each controller's event handler at the new kernel. The
// wiring self-test compares its digests with System.Run's.
func (tr *tracer) attach(sys *core.System) stepper {
	k := sim.NewKernel(sys.Config.Seed)
	for _, mc := range sys.MCs {
		mc.AttachKernel(k)
	}
	reg := func(layer string, c sim.Tickable) { k.Register(tr.wrap(layerIndex(layer), c)) }
	for _, c := range sys.Cores {
		reg("cpu", c)
	}
	for _, sh := range sys.ReqShapers {
		if sh != nil {
			reg("shaper.req", sh)
		}
	}
	reg("noc.req", sys.ReqNet)
	for ch := range sys.Channels {
		reg("dram", sys.Channels[ch])
		reg("memctrl", sys.MCs[ch])
	}
	for _, sh := range sys.RespShapers {
		if sh != nil {
			reg("shaper.resp", sh)
		}
	}
	reg("noc.resp", sys.RespNet)
	if sys.Monitor != nil {
		reg("check", sys.Monitor)
	}
	return stepper{
		kernel:  k,
		advance: func(n sim.Cycle) error { return runChecked(k, sys, n) },
		measure: func(on bool) { tr.on = on },
	}
}

// runChecked advances k by n cycles with the supervision System.Run
// gives: a panic becomes an error, and the monitor's checks run at the
// end. The monitor stops the system's own kernel on a violation, not k,
// so a violation surfaces here, after the span.
func runChecked(k *sim.Kernel, sys *core.System, n sim.Cycle) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic at cycle %d: %v", k.Now(), r)
		}
	}()
	k.Run(n)
	if sys.Monitor == nil {
		return nil
	}
	sys.Monitor.RunChecks(k.Now())
	return sys.Monitor.Err()
}

// wrap returns c behind a counting wrapper that implements exactly the
// optional kernel interfaces c implements, so the kernel's fast-path
// eligibility and skip list are those of the untraced system.
func (tr *tracer) wrap(layer int, c sim.Tickable) sim.Tickable {
	w := &tickWrapper{tr: tr, l: &tr.layers[layer], inner: c}
	nw, ok := c.(sim.NextWaker)
	if !ok {
		return w
	}
	w.waker = nw
	if sk, ok := c.(sim.Skipper); ok {
		return skipWrapper{wakeWrapper{w}, sk}
	}
	return wakeWrapper{w}
}

type tickWrapper struct {
	tr    *tracer
	l     *layerStats
	inner sim.Tickable
	waker sim.NextWaker // nil when inner gives no hint
}

func (w *tickWrapper) Tick(now sim.Cycle) {
	tr := w.tr
	if !tr.on {
		w.inner.Tick(now)
		return
	}
	if now != tr.cycle {
		tr.cycle = now
		tr.countdown--
		tr.sampling = tr.countdown == 0
		if tr.sampling {
			tr.countdown = tr.gap()
		}
	}
	l := w.l
	l.ticks++
	if w.waker != nil && w.waker.NextWake(now-1) > now {
		l.noops++
	}
	if !tr.sampling {
		w.inner.Tick(now)
		return
	}
	t0 := monoNs()
	w.inner.Tick(now)
	t1 := monoNs()
	t2 := monoNs()
	l.sampledNs += t1 - t0
	l.sampledTicks++
	tr.floorNs += t2 - t1
}

type wakeWrapper struct{ *tickWrapper }

func (w wakeWrapper) NextWake(now sim.Cycle) sim.Cycle {
	if w.tr.on {
		w.tr.wakePolls++
	}
	return w.waker.NextWake(now)
}

type skipWrapper struct {
	wakeWrapper
	skipper sim.Skipper
}

func (w skipWrapper) Skip(from, to sim.Cycle) { w.skipper.Skip(from, to) }

// metrics derives the per-layer timing metrics from the counters of
// cycles traced cycles. untracedNsPerCycle is the host time per cycle of
// the untraced repetitions; what the layers' ticks do not explain of it
// is the kernel loop's and supervision's residual.
func (tr *tracer) metrics(cycles sim.Cycle, untracedNsPerCycle float64) map[string]float64 {
	m := map[string]float64{}
	self := make([]float64, len(tr.layers))
	floor := tr.floor()
	var total float64
	for i, l := range tr.layers {
		self[i] = math.Max(0, float64(l.sampledNs)-floor*float64(l.sampledTicks))
		total += self[i]
	}
	var explained float64
	for i, name := range simLayers {
		l := tr.layers[i]
		perCycle := ratio(float64(l.ticks), float64(cycles))
		perTick := ratio(self[i], float64(l.sampledTicks))
		m[name+".ticks_per_cycle"] = perCycle
		m[name+".noop_share"] = ratio(float64(l.noops), float64(l.ticks))
		m[name+".ns_per_tick"] = perTick
		m[name+".time_share"] = ratio(self[i], total)
		explained += perCycle * perTick
	}
	m["sim.wake_polls_per_cycle"] = ratio(float64(tr.wakePolls), float64(cycles))
	m["sim.residual_ns_per_cycle"] = untracedNsPerCycle - explained
	return m
}
