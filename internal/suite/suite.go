// Package suite is the canonical experiment catalogue: every table and
// figure of the paper's evaluation, expressed as campaign jobs. It
// exists as a package (rather than private helpers in cmd/experiments)
// so that every binary that must agree on the job list — the
// experiments supervisor, its re-exec'd process workers, and remote
// cmd/camworker fleet members — builds it from the same code. The
// distributed handshake authenticates with campaign.JobsHash over this
// list; two binaries built from the same tree with the same parameters
// therefore land on the same fleet hash.
package suite

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"camouflage/internal/campaign"
	"camouflage/internal/harness"
	"camouflage/internal/obs"
	"camouflage/internal/sim"
)

// Experiment is one emission unit: a named result assembled from one or
// more campaign jobs (sweeps fan out into a job per point and merge at
// emission).
type Experiment struct {
	Name string
	Jobs []campaign.Job
}

// Params are the knobs that shape job specs. Every binary in a fleet
// must build the suite from identical Params or the fleet hashes (and
// the per-job spec hashes behind them) diverge and the handshake is
// refused.
type Params struct {
	Cycles    sim.Cycle
	Seed      uint64
	Adversary string // fig9 adversary benchmark
	UseGA     bool   // refine BDC configurations with the online GA
}

// Jobs flattens experiments into the campaign job list, preserving
// canonical order.
func Jobs(exps []Experiment) []campaign.Job {
	var all []campaign.Job
	for _, e := range exps {
		all = append(all, e.Jobs...)
	}
	return all
}

// Select resolves a comma-separated -run list against the canonical
// experiment set, preserving canonical order.
func Select(exps []Experiment, run string) ([]Experiment, error) {
	if run == "all" || run == "" {
		return exps, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(run, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	var out []Experiment
	for _, e := range exps {
		if want[e.Name] {
			out = append(out, e)
			delete(want, e.Name)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for name := range want {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		valid := make([]string, len(exps))
		for i, e := range exps {
			valid[i] = e.Name
		}
		return nil, fmt.Errorf("experiments: unknown experiment(s) %s (valid: %s, all)",
			strings.Join(unknown, ", "), strings.Join(valid, ", "))
	}
	return out, nil
}

// Build returns the canonical experiment list. Each job's spec encodes
// every parameter that shapes its result, so the journal's spec hash
// invalidates stale records when a flag changes.
func Build(p Params) []Experiment {
	c, seed, adversary, useGA := p.Cycles, p.Seed, p.Adversary, p.UseGA
	base := fmt.Sprintf("cycles=%d seed=%d", c, seed)
	job := func(name, spec string, fn func(ctx context.Context) (*harness.Table, error)) campaign.Job {
		return campaign.Job{
			Name: name,
			Spec: spec,
			Run: func(ctx context.Context, attempt int) (*harness.Table, error) {
				ctx = obs.WithLabel(ctx, name)
				var table *harness.Table
				err := harness.Protect(name, func() error {
					var e error
					table, e = fn(ctx)
					return e
				})
				return table, err
			},
		}
	}
	single := func(name, spec string, fn func(ctx context.Context) (*harness.Table, error)) Experiment {
		return Experiment{Name: name, Jobs: []campaign.Job{job(name, spec, fn)}}
	}
	tab := func(r interface{ Table() *harness.Table }, err error) (*harness.Table, error) {
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	}

	// fig12 and fig13 go through the campaign's per-run result store,
	// keyed by job name and spec, so the headline job derives its numbers
	// from the fig12/fig13a/fig13b runs of the same campaign instead of
	// simulating them again.
	fig12 := func(ctx context.Context) (*harness.ReqCSpeedupResult, error) {
		return campaign.Share(ctx, shareKey("fig12", base), func() (*harness.ReqCSpeedupResult, error) {
			return harness.ReqCSpeedup(ctx, c, seed)
		})
	}
	fig13 := func(ctx context.Context, name, bench string, ga bool) (*harness.BDCComparisonResult, error) {
		return campaign.Share(ctx, shareKey(name, fig13Spec(base, bench, ga)), func() (*harness.BDCComparisonResult, error) {
			return harness.BDCComparison(ctx, bench, ga, c, seed)
		})
	}

	exps := []Experiment{
		single("table1", "static", func(ctx context.Context) (*harness.Table, error) {
			return harness.SchemeCapabilityTable(), nil
		}),
		single("table2", "static", func(ctx context.Context) (*harness.Table, error) {
			return harness.BaseConfigTable(), nil
		}),
		single("fig2", base+" bench=bzip", func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.TradeoffSpace(ctx, "bzip", c, seed))
		}),
		single("fig3", base+" bench=bzip", func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.ShapedDistributions(ctx, "bzip", c, seed))
		}),
		single("fig4", fmt.Sprintf("seed=%d key=0x2AAAAAAA bits=32", seed), func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.KeyDistortion(ctx, 0x2AAAAAAA, 32, seed))
		}),
		single("fig8", fmt.Sprintf("seed=%d victim=gcc coworker=astar pop=16 gens=10", seed), func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.GATimeline(ctx, "gcc", "astar", 16, 10, seed))
		}),
		single("fig9", base+" adversary="+adversary, func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.ReturnTimeDifference(ctx, adversary, c, seed))
		}),
		single("fig10a", base+" victim=astar coworker=mcf", func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.RespCPerformance(ctx, "astar", "mcf", c, seed))
		}),
		single("fig10b", base+" victim=mcf coworker=astar", func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.RespCPerformance(ctx, "mcf", "astar", c, seed))
		}),
		single("fig11", base, func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.DistributionAccuracy(ctx, c, seed))
		}),
		single("fig12", base, func(ctx context.Context) (*harness.Table, error) {
			return tab(fig12(ctx))
		}),
		single("fig13a", fig13Spec(base, "astar", useGA), func(ctx context.Context) (*harness.Table, error) {
			return tab(fig13(ctx, "fig13a", "astar", useGA))
		}),
		single("fig13b", fig13Spec(base, "mcf", useGA), func(ctx context.Context) (*harness.Table, error) {
			return tab(fig13(ctx, "fig13b", "mcf", useGA))
		}),
		single("fig14", fmt.Sprintf("seed=%d key=0x2AAAAAAA bits=32", seed), func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.CovertChannel(ctx, 0x2AAAAAAA, 32, seed))
		}),
		single("fig15", fmt.Sprintf("seed=%d key=0x01010101 bits=32", seed), func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.CovertChannel(ctx, 0x01010101, 32, seed))
		}),
		single("mi", base+" bench=astar", func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.MutualInformation(ctx, "astar", c, seed))
		}),
		single("headline", base, func(ctx context.Context) (*harness.Table, error) {
			// The headline aggregates the GA-free Figure 13 runs, which
			// are the fig13 jobs' own only when -ga is off.
			r12, err := fig12(ctx)
			if err != nil {
				return nil, err
			}
			a, err := fig13(ctx, "fig13a", "astar", false)
			if err != nil {
				return nil, err
			}
			b, err := fig13(ctx, "fig13b", "mcf", false)
			if err != nil {
				return nil, err
			}
			return harness.CombineHeadline(r12, a, b).Table(), nil
		}),
		scalabilitySweep(c, seed, job),
		single("epochrate", base+" bench=gcc", func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.EpochRateComparison(ctx, "gcc", c, seed))
		}),
		single("windowleak", base+" bench=bzip", func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.WithinWindowLeakage(ctx, "bzip", nil, c, seed))
		}),
		single("phasedetect", fmt.Sprintf("cycles=%d seed=%d", 2*c, seed), func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.PhaseDetection(ctx, 2*c, seed))
		}),
		single("mitts", base, func(ctx context.Context) (*harness.Table, error) {
			return tab(harness.MITTSFairness(ctx, c, seed))
		}),
		single("robustness", base, func(ctx context.Context) (*harness.Table, error) {
			r, err := harness.Robustness(ctx, c, seed)
			if err != nil {
				return nil, err
			}
			if r.Failed() {
				// The measured matrix is still worth showing; the verdict
				// is fatal (deterministic from the seed, retrying cannot
				// change it).
				return r.Table(), campaign.Fatal(errors.New("some fault classes missed their expectation"))
			}
			return r.Table(), nil
		}),
	}
	return exps
}

// shareKey is the campaign.Share key of job name's result under spec.
func shareKey(name, spec string) string { return name + " " + spec }

// fig13Spec is the spec of a Figure 13 job for victim bench.
func fig13Spec(base, bench string, ga bool) string {
	return fmt.Sprintf("%s bench=%s ga=%t", base, bench, ga)
}

// scalabilitySweep fans the §II-B scalability experiment into one job
// per core count — each point derives its sources from seed+cores*31 and
// is independent, so the sweep parallelizes and resumes point-by-point;
// emission merges the rows back into the canonical single table.
func scalabilitySweep(c sim.Cycle, seed uint64, job func(name, spec string, fn func(ctx context.Context) (*harness.Table, error)) campaign.Job) Experiment {
	e := Experiment{Name: "scalability"}
	for _, n := range []int{4, 8, 16} {
		n := n
		e.Jobs = append(e.Jobs, job(
			fmt.Sprintf("scalability/%d", n),
			fmt.Sprintf("cycles=%d seed=%d cores=%d", c, seed, n),
			func(ctx context.Context) (*harness.Table, error) {
				r, err := harness.Scalability(ctx, []int{n}, c, seed)
				if err != nil {
					return nil, err
				}
				return r.Table(), nil
			}))
	}
	return e
}
