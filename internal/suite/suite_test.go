package suite

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"camouflage/internal/campaign"
	"camouflage/internal/core"
	"camouflage/internal/harness"
)

const shareCycles = 30_000

// runShared runs fig12, fig13a, fig13b and headline through one
// two-worker campaign and returns the headline table and each job's
// heartbeat count (each heartbeat is SuperviseStride simulated cycles).
//
// Which job leads a shared key is a race: the headline could reach
// fig13b's key while the worker that just dequeued fig13b has not yet.
// The headline is held until fig13b has simulated a first stride (or
// ended), so the headline always finds fig13b in flight or stored.
func runShared(t *testing.T, p Params) (string, map[string]uint64) {
	t.Helper()
	exps, err := Select(Build(p), "fig12,fig13a,fig13b,headline")
	if err != nil {
		t.Fatal(err)
	}
	jobs := Jobs(exps)
	counts := make([]atomic.Uint64, len(jobs))
	fig13bLive := make(chan struct{})
	var once sync.Once
	for i := range jobs {
		i, name, run := i, jobs[i].Name, jobs[i].Run
		jobs[i].Run = func(ctx context.Context, attempt int) (*harness.Table, error) {
			switch name {
			case "fig13b":
				defer once.Do(func() { close(fig13bLive) })
			case "headline":
				<-fig13bLive
			}
			ctx = core.WithHeartbeatFunc(ctx, func(core.Heartbeat) {
				counts[i].Add(1)
				if name == "fig13b" {
					once.Do(func() { close(fig13bLive) })
				}
			})
			return run(ctx, attempt)
		}
	}
	sum, err := campaign.Run(context.Background(), jobs, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	beats := map[string]uint64{}
	var headline string
	for i, res := range sum.Results {
		if res.Status != campaign.Done {
			t.Fatalf("job %s: %s: %v", res.Job.Name, res.Status, res.Err)
		}
		beats[res.Job.Name] = counts[i].Load()
		if res.Job.Name == "headline" {
			headline = res.Table.String()
		}
	}
	return headline, beats
}

// standaloneHeadline computes the headline outside any campaign and
// counts the heartbeats it simulates.
func standaloneHeadline(t *testing.T, p Params) (string, uint64) {
	t.Helper()
	var beats atomic.Uint64
	ctx := core.WithHeartbeatFunc(context.Background(), func(core.Heartbeat) { beats.Add(1) })
	r, err := harness.HeadlineSpeedups(ctx, p.Cycles, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return r.Table().String(), beats.Load()
}

// TestHeadlineDerivedFromFigureJobs checks that the headline job reuses
// the fig12/fig13 results of its campaign: its table is byte-identical
// to a standalone HeadlineSpeedups, it simulates nothing itself, and the
// four jobs together simulate exactly what the standalone headline does.
func TestHeadlineDerivedFromFigureJobs(t *testing.T) {
	p := Params{Cycles: shareCycles, Seed: 3}
	want, wantBeats := standaloneHeadline(t, p)
	got, beats := runShared(t, p)
	if got != want {
		t.Fatalf("campaign headline differs from standalone:\n%s\nwant:\n%s", got, want)
	}
	if beats["headline"] != 0 {
		t.Errorf("headline job simulated %d strides, want 0 (results shared)", beats["headline"])
	}
	var total uint64
	for _, b := range beats {
		total += b
	}
	if total != wantBeats {
		t.Errorf("campaign simulated %d strides in total (%v), standalone headline %d: work was repeated",
			total, beats, wantBeats)
	}
}

// TestHeadlineIgnoresGARefinedFigures checks that with UseGA the fig13
// jobs (GA-refined) do not feed the headline, which stays GA-free.
func TestHeadlineIgnoresGARefinedFigures(t *testing.T) {
	p := Params{Cycles: shareCycles, Seed: 3, UseGA: true}
	specs := map[string]string{}
	for _, j := range Jobs(Build(p)) {
		specs[j.Name] = j.Spec
	}
	// The headline's spec is the base its fig13 keys are built from.
	for name, bench := range map[string]string{"fig13a": "astar", "fig13b": "mcf"} {
		jobKey := shareKey(name, specs[name])
		headlineKey := shareKey(name, fig13Spec(specs["headline"], bench, false))
		if jobKey == headlineKey {
			t.Fatalf("%s job and headline share key %q under -ga", name, jobKey)
		}
	}
	want, _ := standaloneHeadline(t, p)
	got, beats := runShared(t, p)
	if got != want {
		t.Fatalf("campaign headline with -ga differs from standalone:\n%s\nwant:\n%s", got, want)
	}
	if beats["headline"] == 0 {
		t.Error("headline simulated nothing under -ga: it consumed the GA-refined fig13 results")
	}
}
