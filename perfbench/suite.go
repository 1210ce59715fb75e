package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"camouflage/internal/campaign"
	"camouflage/internal/core"
	"camouflage/internal/harness"
	"camouflage/internal/suite"
)

// suiteWorkers is the paper-suite's campaign worker count, capped at the
// host's CPUs: a closed loop of at most that many workers pulling jobs.
const suiteWorkers = 2

// catalogueBuilds is how many times one run builds the suite catalogue
// to report its set-up time as a median.
const catalogueBuilds = 200

// paperHeadline is the paper's abstract: Camouflage's throughput over
// CS, TP and FS, in the row order of the headline table.
var paperHeadline = []float64{1.12, 1.50, 1.32}

// campaignRep is one in-process campaign over the whole catalogue.
type campaignRep struct {
	wall, cpu  time.Duration
	allocBytes uint64
	// beats counts supervision-grid heartbeats from the harness's
	// measured systems; each stands for core.SuperviseStride cycles.
	beats uint64
	// tables holds each job's rendered table, "" for a job that failed.
	tables    []string
	jobS      []time.Duration // per job, summed over attempts
	queueWait time.Duration   // summed time from campaign start to each job's first start
	retries   int
	// headlineErr and miBits are read from the headline and mi tables
	// (NaN when the job is absent or failed).
	headlineErr, miBits float64
	// err is the campaign's error, or else the first failed job's.
	err error
}

// runCampaign runs jobs through campaign.Run with every job's Run
// wrapped to time it and to count the heartbeats of the systems it
// simulates.
func runCampaign(jobs []campaign.Job, workers int) *campaignRep {
	r := &campaignRep{
		tables:      make([]string, len(jobs)),
		jobS:        make([]time.Duration, len(jobs)),
		headlineErr: math.NaN(),
		miBits:      math.NaN(),
	}
	var mu sync.Mutex
	var beats atomic.Uint64
	beat := func(core.Heartbeat) { beats.Add(1) }
	started := make([]bool, len(jobs))
	wrapped := make([]campaign.Job, len(jobs))
	start := time.Now()
	for i, j := range jobs {
		i, run := i, j.Run
		j.Run = func(ctx context.Context, attempt int) (*harness.Table, error) {
			t := time.Now()
			table, err := run(core.WithHeartbeatFunc(ctx, beat), attempt)
			took := time.Since(t)
			mu.Lock()
			if !started[i] {
				started[i] = true
				r.queueWait += t.Sub(start)
			}
			r.jobS[i] += took
			mu.Unlock()
			return table, err
		}
		wrapped[i] = j
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	sum, err := campaign.Run(context.Background(), wrapped, campaign.Options{Workers: workers, Retries: 2})
	r.wall = time.Since(t0)
	r.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.beats = beats.Load()
	if err != nil {
		r.err = err
		return r // every table stays "": every job counts as failed
	}
	for i, res := range sum.Results {
		if res.Attempts > 1 {
			r.retries += res.Attempts - 1
		}
		if res.Status != campaign.Done || res.Table == nil {
			if r.err == nil {
				r.err = fmt.Errorf("job %s: %s: %v", res.Job.Name, res.Status, res.Err)
			}
			continue
		}
		r.tables[i] = res.Table.String()
		switch res.Job.Name {
		case "headline":
			r.headlineErr = headlineErr(res.Table)
		case "mi":
			r.miBits = camouflageMI(res.Table)
		}
	}
	return r
}

// headlineErr is the largest relative error of the measured headline
// speedups against the paper's (NaN if the table does not parse).
func headlineErr(t *harness.Table) float64 {
	if len(t.Rows) != len(paperHeadline) {
		return math.NaN()
	}
	worst := 0.0
	for i, row := range t.Rows {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[len(row)-1], "x"), 64)
		if err != nil {
			return math.NaN()
		}
		worst = math.Max(worst, math.Abs(v/paperHeadline[i]-1))
	}
	return worst
}

// camouflageMI is the MI of the "ReqC (fake)" row of the mi table: the
// leakage left with Camouflage's request shaping and fake traffic.
func camouflageMI(t *harness.Table) float64 {
	for _, row := range t.Rows {
		if len(row) > 1 && row[0] == "ReqC (fake)" {
			if v, err := strconv.ParseFloat(row[1], 64); err == nil {
				return v
			}
		}
	}
	return math.NaN()
}

// runSuite measures the paper-suite workload: repeated in-process
// campaigns over the catalogue build returns. A job fails when it
// errors, or when its table differs from the first campaign's.
func runSuite(build func() []campaign.Job, budget time.Duration, traced bool) *result {
	var setups []float64
	var jobs []campaign.Job
	for i := 0; i < catalogueBuilds; i++ {
		t := time.Now()
		jobs = build()
		setups = append(setups, time.Since(t).Seconds())
	}
	workers := suiteWorkers
	if n := runtime.NumCPU(); n < workers {
		workers = n
	}

	var reps []*campaignRep
	repeat(budget, 2, func() { reps = append(reps, runCampaign(jobs, workers)) })

	res := &result{Attempted: len(jobs) * len(reps)}
	ref := reps[0]
	for _, r := range reps {
		if r.err != nil && res.firstErr == nil {
			res.firstErr = r.err
		}
		for i, tab := range r.tables {
			if tab == "" || tab != ref.tables[i] {
				res.Failed++
			}
		}
	}
	modelOK := true
	for _, j := range jobs {
		switch j.Name {
		case "headline":
			modelOK = modelOK && !math.IsNaN(ref.headlineErr)
		case "mi":
			modelOK = modelOK && !math.IsNaN(ref.miBits)
		}
	}
	res.Correct = res.Failed == 0 && modelOK

	if !traced {
		var mcps, wall, cpuS, alloc []float64
		for _, r := range reps {
			cycles := float64(r.beats) * float64(core.SuperviseStride)
			mcps = append(mcps, cycles/r.wall.Seconds()/1e6)
			wall = append(wall, r.wall.Seconds())
			cpuS = append(cpuS, r.cpu.Seconds())
			alloc = append(alloc, float64(r.allocBytes)/mib)
		}
		res.fill(endToEnd, map[string]float64{
			"sim_mcycles_per_s": median(mcps),
			"wall_s":            median(wall),
			"setup_s":           median(setups),
			"cpu_s":             median(cpuS),
			"peak_rss_mb":       peakRSSMiB(),
			"alloc_mb":          median(alloc),
		}, len(reps), map[string]int{"peak_rss_mb": 1, "setup_s": len(setups)})
		return res
	}

	values := map[string]float64{}
	var total, wait, critical []float64
	for i, j := range jobs {
		var s []float64
		for _, r := range reps {
			s = append(s, r.jobS[i].Seconds())
		}
		values[jobMetric(j.Name)] = median(s)
	}
	retries := 0
	for _, r := range reps {
		var sum, longest time.Duration
		for _, d := range r.jobS {
			sum += d
			if d > longest {
				longest = d
			}
		}
		total = append(total, sum.Seconds())
		critical = append(critical, longest.Seconds())
		wait = append(wait, r.queueWait.Seconds())
		retries += r.retries
	}
	values["campaign.job_s_total"] = median(total)
	values["campaign.queue_wait_s"] = median(wait)
	values["campaign.critical_path_s"] = median(critical)
	values["campaign.retries"] = float64(retries)
	values["model.headline_err"] = ref.headlineErr
	values["model.camouflage_mi_bits"] = ref.miBits
	res.fill(perLayerDefs(), values, len(reps), nil)
	return res
}

// catalogue builds the canonical suite for seed.
func catalogue(seed uint64) func() []campaign.Job {
	return func() []campaign.Job { return suite.Jobs(suite.Build(suiteParams(seed))) }
}
