package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"camouflage/internal/check"
	"camouflage/internal/core"
	"camouflage/internal/cpu"
	"camouflage/internal/dram"
	"camouflage/internal/fault"
	"camouflage/internal/memctrl"
	"camouflage/internal/noc"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/trace"
)

// mix is the 4-program workload both simulation workloads run, one
// program per core.
var mix = []string{"mcf", "astar", "gcc", "sjeng"}

// simSpec is one simulation workload: the mix under one scheme, a
// warm-up that fills the caches before timing starts, and a measured
// phase of segments equal segments. A segment is one operation of the
// fail accounting.
type simSpec struct {
	name      string
	scheme    core.Scheme
	warmup    sim.Cycle
	segments  int
	segCycles sim.Cycle

	// checks and faults let the self-tests shorten the flow checker's
	// loss horizon and inject NoC faults; the workloads leave them zero.
	checks check.Options
	faults *fault.Options
}

// simSpecs are the simulation workloads. The measured span is fixed, so
// wall_s is the time of a fixed amount of simulated work.
var simSpecs = map[string]simSpec{
	// Always-on BDC with fake traffic on both directions: the secure
	// steady state, never idle, so per-cycle cost sets throughput.
	"bdc-secure": {name: "bdc-secure", scheme: core.BDC, warmup: 200_000, segments: 8, segCycles: 500_000},
	// The same mix unshaped: no shaper code runs, and the idle fast path
	// skips a large share of cycles.
	"unshaped-mix": {name: "unshaped-mix", scheme: core.NoShaping, warmup: 200_000, segments: 8, segCycles: 1_500_000},
}

// build constructs the system with its trace generators derived from
// seed and the invariant monitor enabled, as the experiment harness runs
// every system.
func (sp simSpec) build(seed uint64) (*core.System, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Scheme = sp.scheme
	if sp.scheme == core.BDC {
		req, resp := core.DefaultShaperConfig(), core.DefaultShaperConfig()
		cfg.ReqShaperCfg, cfg.RespShaperCfg = &req, &resp
	}
	rng := sim.NewRNG(seed)
	srcs := make([]trace.Source, cfg.Cores)
	for i := range srcs {
		p, err := trace.ProfileByName(mix[i%len(mix)])
		if err != nil {
			return nil, err
		}
		if srcs[i], err = trace.NewGenerator(p, rng.Fork()); err != nil {
			return nil, err
		}
	}
	sys, err := core.NewSystem(cfg, srcs)
	if err != nil {
		return nil, err
	}
	sys.EnableChecks(sp.checks)
	if sp.faults != nil {
		sys.InjectFaults(fault.NewInjector(*sp.faults, sim.NewRNG(seed+1)))
	}
	return sys, nil
}

// snapshot is the simulated state a digest covers: every component's
// public counters at one cycle.
type snapshot struct {
	Cycle    sim.Cycle
	Cores    []cpu.Stats
	Req      []shaper.Stats
	Resp     []shaper.Stats
	ReqNet   noc.LinkStats
	RespNet  noc.LinkStats
	MCs      []memctrl.ControllerStats
	Channels []dram.ChannelStats
	// ReqDrift and RespDrift are each shaper's distribution drift.
	ReqDrift  []float64
	RespDrift []float64
}

func takeSnapshot(sys *core.System, now sim.Cycle) snapshot {
	s := snapshot{Cycle: now, ReqNet: sys.ReqNet.Stats(), RespNet: sys.RespNet.Stats()}
	for _, c := range sys.Cores {
		s.Cores = append(s.Cores, c.Stats())
	}
	for _, sh := range sys.ReqShapers {
		if sh != nil {
			s.Req = append(s.Req, sh.Stats())
			s.ReqDrift = append(s.ReqDrift, sh.DistributionDrift())
		}
	}
	for _, sh := range sys.RespShapers {
		if sh != nil {
			s.Resp = append(s.Resp, sh.Stats())
			s.RespDrift = append(s.RespDrift, sh.DistributionDrift())
		}
	}
	for i, mc := range sys.MCs {
		s.MCs = append(s.MCs, mc.Stats())
		s.Channels = append(s.Channels, sys.Channels[i].Stats())
	}
	return s
}

// digest hashes a snapshot. Any speed-only change leaves it unchanged.
func (s snapshot) digest() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", s)))
	return hex.EncodeToString(sum[:])
}

// simRep is one repetition of a simulation workload: build, warm up,
// then run the measured segments.
type simRep struct {
	newSystem, setup time.Duration
	// wall, cycles, allocBytes, mallocs and gcPause cover the measured
	// segments that completed; cpu covers the whole measured phase.
	wall                time.Duration
	cpu                 time.Duration
	cycles              sim.Cycle
	allocBytes, mallocs uint64
	gcPause             time.Duration
	// digests holds one digest per segment, "" for a segment that did not
	// complete cleanly.
	digests       []string
	before, after snapshot
	skipped       sim.Cycle
	jumps         uint64
	err           error
}

// stepper advances one system: the supervised System.Run on the
// system's own kernel for an untraced repetition, the traced kernel for
// a traced one.
type stepper struct {
	kernel  *sim.Kernel
	advance func(n sim.Cycle) error
	// measure brackets the measured phase (on at its start, off at its
	// end).
	measure func(on bool)
}

// runRep executes one repetition of sp on the stepper attach returns for
// the freshly built system.
func runRep(sp simSpec, seed uint64, attach func(*core.System) stepper) *simRep {
	r := &simRep{digests: make([]string, sp.segments)}
	t0 := time.Now()
	sys, err := sp.build(seed)
	r.newSystem = time.Since(t0)
	if err != nil {
		r.err = fmt.Errorf("build: %w", err)
		return r
	}
	d := attach(sys)
	if err := d.advance(sp.warmup); err != nil {
		r.err = fmt.Errorf("warmup: %w", err)
		return r
	}
	r.setup = time.Since(t0)
	r.before = takeSnapshot(sys, d.kernel.Now())
	skip0, jumps0 := d.kernel.SkippedCycles(), d.kernel.Jumps()

	d.measure(true)
	cpu0 := cpuTime()
	var ms0, ms1 runtime.MemStats
	for i := 0; i < sp.segments; i++ {
		runtime.ReadMemStats(&ms0)
		t := time.Now()
		err := d.advance(sp.segCycles)
		took := time.Since(t)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			r.err = fmt.Errorf("segment %d: %w", i, err)
			break
		}
		r.wall += took
		r.cycles += sp.segCycles
		r.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		r.mallocs += ms1.Mallocs - ms0.Mallocs
		r.gcPause += time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
		r.digests[i] = takeSnapshot(sys, d.kernel.Now()).digest()
	}
	r.cpu = cpuTime() - cpu0
	d.measure(false)
	r.after = takeSnapshot(sys, d.kernel.Now())
	r.skipped, r.jumps = d.kernel.SkippedCycles()-skip0, d.kernel.Jumps()-jumps0
	return r
}

// untraced runs the system exactly as the harness does: supervised
// System.Run calls on the system's own kernel.
func untraced(sys *core.System) stepper {
	return stepper{kernel: sys.Kernel, advance: sys.Run, measure: func(bool) {}}
}

// segmentFailures counts the segments of reps that failed: those that
// did not complete cleanly, and those whose digest differs from the same
// segment of ref.
func segmentFailures(ref []string, reps []*simRep) int {
	failed := 0
	for _, r := range reps {
		for i, d := range r.digests {
			if d == "" || d != ref[i] {
				failed++
			}
		}
	}
	return failed
}

// noteFirstError keeps the first repetition error for the report.
func (r *result) noteFirstError(reps []*simRep) {
	for _, rep := range reps {
		if rep.err != nil && r.firstErr == nil {
			r.firstErr = rep.err
		}
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// repeat runs rep at least atLeast times, then keeps starting
// repetitions while one more of the last one's duration still fits in
// budget.
func repeat(budget time.Duration, atLeast int, rep func()) {
	start := time.Now()
	var last time.Duration
	for n := 0; n < atLeast || time.Since(start)+last <= budget; n++ {
		t := time.Now()
		rep()
		last = time.Since(t)
	}
}

const mib = 1 << 20

// runSim measures a simulation workload. Untraced, it reports the
// end-to-end metrics as medians over repetitions. Traced, it runs a
// third of the budget untraced (the reference digests and untraced
// throughput), the rest through the traced kernel, and reports the
// per-layer metrics; every traced segment must reproduce the untraced
// digest.
func runSim(sp simSpec, seed uint64, budget time.Duration, traced bool) *result {
	var reps []*simRep
	untracedBudget := budget
	if traced {
		untracedBudget = budget / 3
	}
	repeat(untracedBudget, 2, func() { reps = append(reps, runRep(sp, seed, untraced)) })

	ref := reps[0].digests
	res := &result{Attempted: len(reps) * sp.segments}
	res.Failed = segmentFailures(ref, reps)
	res.noteFirstError(reps)

	var mcps, wall, setup, cpuS, alloc, newSys, warm, allocsPerM, gcMS []float64
	for _, r := range reps {
		if r.cycles == 0 {
			continue
		}
		mcps = append(mcps, float64(r.cycles)/r.wall.Seconds()/1e6)
		wall = append(wall, r.wall.Seconds())
		setup = append(setup, r.setup.Seconds())
		cpuS = append(cpuS, r.cpu.Seconds())
		alloc = append(alloc, float64(r.allocBytes)/mib)
		newSys = append(newSys, float64(r.newSystem)/1e6)
		warm = append(warm, float64(r.setup-r.newSystem)/1e6)
		allocsPerM = append(allocsPerM, float64(r.mallocs)/(float64(r.cycles)/1e6))
		gcMS = append(gcMS, float64(r.gcPause)/1e6)
	}

	if !traced {
		res.Correct = res.Failed == 0 && sane(reps[0])
		res.fill(endToEnd, map[string]float64{
			"sim_mcycles_per_s": median(mcps),
			"wall_s":            median(wall),
			"setup_s":           median(setup),
			"cpu_s":             median(cpuS),
			"peak_rss_mb":       peakRSSMiB(),
			"alloc_mb":          median(alloc),
		}, len(mcps), map[string]int{"peak_rss_mb": 1})
		return res
	}

	tr := newTracer(seed)
	var treps []*simRep
	repeat(budget-untracedBudget, 1, func() { treps = append(treps, runRep(sp, seed, tr.attach)) })
	res.Attempted += len(treps) * sp.segments
	res.Failed += segmentFailures(ref, treps)
	res.noteFirstError(treps)
	res.Correct = res.Failed == 0 && sane(reps[0])

	var tracedCycles sim.Cycle
	var tracedWall time.Duration
	for _, r := range treps {
		tracedCycles += r.cycles
		tracedWall += r.wall
	}
	untracedNsPerCycle := 1e3 / median(mcps)
	values := tr.metrics(tracedCycles, untracedNsPerCycle)
	values["sim.tracing_overhead"] = ratio(median(mcps), float64(tracedCycles)/tracedWall.Seconds()/1e6)
	r0 := reps[0]
	values["sim.skip_share"] = ratio(float64(r0.skipped), float64(r0.cycles))
	values["sim.jumps_per_kcycle"] = ratio(float64(r0.jumps)*1e3, float64(r0.cycles))
	for k, v := range workMetrics(r0.before, r0.after) {
		values[k] = v
	}
	values["host.allocs_per_mcycle"] = median(allocsPerM)
	values["host.gc_pause_ms"] = median(gcMS)
	values["setup.new_system_ms"] = median(newSys)
	values["setup.warmup_ms"] = median(warm)
	counts := map[string]int{}
	for i, l := range tr.layers {
		counts[simLayers[i]+".ns_per_tick"] = int(l.sampledTicks)
		counts[simLayers[i]+".time_share"] = int(l.sampledTicks)
	}
	res.fill(perLayerDefs(), values, len(mcps), counts)
	return res
}

// sane reports whether the reference repetition did real work: every
// core committed work and the memory system served requests.
func sane(r *simRep) bool {
	if r.cycles == 0 || len(r.after.Cores) == 0 {
		return false
	}
	for i, c := range r.after.Cores {
		if c.Work <= r.before.Cores[i].Work {
			return false
		}
	}
	return r.after.MCs[0].Completed > r.before.MCs[0].Completed
}

// workMetrics derives the simulated-work metrics of each layer from the
// counters at the start (a) and end (b) of the measured phase.
func workMetrics(a, b snapshot) map[string]float64 {
	cycles := float64(b.Cycle - a.Cycle)
	m := map[string]float64{}

	var work, memStall, shStall float64
	for i := range b.Cores {
		work += float64(b.Cores[i].Work - a.Cores[i].Work)
		memStall += float64(b.Cores[i].MemStallCycles - a.Cores[i].MemStallCycles)
		shStall += float64(b.Cores[i].ShaperStallCycles - a.Cores[i].ShaperStallCycles)
	}
	coreCycles := cycles * float64(len(b.Cores))
	m["cpu.ipc"] = ratio(work, coreCycles)
	m["cpu.mem_stall_share"] = ratio(memStall, coreCycles)
	m["cpu.shaper_stall_share"] = ratio(shStall, coreCycles)

	shaperSums := func(a, b []shaper.Stats) (real, fake, delay float64) {
		for i := range b {
			real += float64(b[i].ReleasedReal - a[i].ReleasedReal)
			fake += float64(b[i].ReleasedFake - a[i].ReleasedFake)
			delay += float64(b[i].DelayedCycles - a[i].DelayedCycles)
		}
		return
	}
	real, fake, delay := shaperSums(a.Req, b.Req)
	m["shaper.req.fake_share"] = ratio(fake, real+fake)
	m["shaper.req.delay_per_real"] = ratio(delay, real)
	real, fake, _ = shaperSums(a.Resp, b.Resp)
	m["shaper.resp.fake_share"] = ratio(fake, real+fake)
	m["shaper.req.drift_l1"] = mean(b.ReqDrift)
	m["shaper.resp.drift_l1"] = mean(b.RespDrift)

	m["noc.req.delivered_per_kcycle"] = ratio(float64(b.ReqNet.Delivered-a.ReqNet.Delivered)*1e3, cycles)
	m["noc.req.stall_share"] = ratio(float64(b.ReqNet.StallCycles-a.ReqNet.StallCycles), cycles)
	m["noc.resp.stall_share"] = ratio(float64(b.RespNet.StallCycles-a.RespNet.StallCycles), cycles)

	var occ, occCycles, acc, rej, hits, accesses, busy float64
	for i := range b.MCs {
		occ += float64(b.MCs[i].QueueOccupancySum - a.MCs[i].QueueOccupancySum)
		occCycles += float64(b.MCs[i].Cycles - a.MCs[i].Cycles)
		acc += float64(b.MCs[i].Accepted - a.MCs[i].Accepted)
		rej += float64(b.MCs[i].Rejected - a.MCs[i].Rejected)
		bc, ac := b.Channels[i], a.Channels[i]
		hits += float64(bc.RowHits - ac.RowHits)
		accesses += float64(bc.RowHits + bc.RowEmpty + bc.RowConfl - ac.RowHits - ac.RowEmpty - ac.RowConfl)
		busy += float64(bc.BusyCycles - ac.BusyCycles)
	}
	m["memctrl.occupancy_mean"] = ratio(occ, occCycles)
	m["memctrl.reject_share"] = ratio(rej, acc+rej)
	m["dram.row_hit_rate"] = ratio(hits, accesses)
	m["dram.bus_busy_share"] = ratio(busy, cycles*float64(len(b.Channels)))
	return m
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
