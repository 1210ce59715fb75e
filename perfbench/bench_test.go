package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"camouflage/internal/campaign"
	"camouflage/internal/check"
	"camouflage/internal/core"
	"camouflage/internal/fault"
	"camouflage/internal/harness"
	"camouflage/internal/sim"
)

// short shrinks a workload to a few short segments for the self-tests.
func (sp simSpec) short() simSpec {
	sp.warmup, sp.segments, sp.segCycles = 20_000, 3, 40_000
	return sp
}

func shortSpecs() []simSpec {
	return []simSpec{simSpecs["bdc-secure"].short(), simSpecs["unshaped-mix"].short()}
}

// TestTracedKernelMatchesSystemRun is the wiring guard: the traced
// kernel rebuilds core.NewSystem's tick list by hand, so if the system
// ever gains, drops or reorders a component its digests stop matching
// System.Run's and the per-layer numbers would describe another program.
func TestTracedKernelMatchesSystemRun(t *testing.T) {
	for _, sp := range shortSpecs() {
		t.Run(sp.name, func(t *testing.T) {
			want := runRep(sp, 7, untraced)
			tr := newTracer(7)
			got := runRep(sp, 7, tr.attach)
			if want.err != nil || got.err != nil {
				t.Fatalf("untraced err %v, traced err %v", want.err, got.err)
			}
			for i := range want.digests {
				if want.digests[i] == "" || got.digests[i] != want.digests[i] {
					t.Fatalf("segment %d: traced digest %q, System.Run digest %q", i, got.digests[i], want.digests[i])
				}
			}
			for i, l := range tr.layers {
				if simLayers[i] == "shaper.req" || simLayers[i] == "shaper.resp" {
					if (l.ticks > 0) != (sp.scheme != core.NoShaping) {
						t.Errorf("layer %s: %d ticks under scheme %v", simLayers[i], l.ticks, sp.scheme)
					}
					continue
				}
				if l.ticks == 0 || l.sampledTicks == 0 {
					t.Errorf("layer %s: %d ticks, %d sampled", simLayers[i], l.ticks, l.sampledTicks)
				}
			}
		})
	}
}

// spin is a tickable whose tick costs about cost on every period-th
// cycle and nothing on the others.
type spin struct {
	period sim.Cycle
	iters  int
	sink   uint64
}

func (s *spin) Tick(now sim.Cycle) {
	if now%s.period != 0 {
		return
	}
	x := s.sink
	for i := 0; i < s.iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	s.sink = x
}

// directNs measures s's mean tick cost over n consecutive cycles with
// one timer pair around the whole loop, so the timer cost is negligible.
func directNs(s *spin, n int) float64 {
	t := time.Now()
	for c := 1; c <= n; c++ {
		s.Tick(sim.Cycle(c))
	}
	return float64(time.Since(t)) / float64(n)
}

// tracedNs runs tk alone through the traced kernel for n cycles and
// returns its measured ns per tick and the timer floor subtracted.
func tracedNs(tk sim.Tickable, n sim.Cycle) (perTick, floor float64) {
	tr := newTracer(3)
	k := sim.NewKernel(1)
	k.Register(tr.wrap(0, tk))
	tr.on = true
	k.Run(n)
	return tr.metrics(n, 0)[simLayers[0]+".ns_per_tick"], tr.floor()
}

// compareNs measures s directly and traced in alternating rounds and
// returns both medians, so host noise hits the two alike.
func compareNs(s *spin, n int) (direct, traced float64) {
	var d, tr []float64
	for r := 0; r < 5; r++ {
		d = append(d, directNs(s, n))
		ns, _ := tracedNs(s, sim.Cycle(n))
		tr = append(tr, ns)
	}
	return median(d), median(tr)
}

// TestSamplingRemovesTimerFloor checks the sampled tick timing on
// synthetic tickables of known cost: an empty tick must read well below
// the timer floor (its call only), a steady tick its directly
// measured cost, and a tick that is expensive only on every 64th cycle
// (a power-of-two period, like the monitor's check stride) its average
// cost rather than 0 or the full cost, which a fixed power-of-two
// sampling stride would report.
func TestSamplingRemovesTimerFloor(t *testing.T) {
	if got, floor := tracedNs(sim.TickFunc(func(sim.Cycle) {}), 400_000); floor <= 0 || got > floor/3 {
		t.Errorf("empty tick reads %.2f ns with a timer floor of %.2f ns", got, floor)
	}
	for _, s := range []*spin{{period: 1, iters: 200}, {period: 64, iters: 4000}} {
		want, got := compareNs(s, 1<<20)
		if got < 0.7*want || got > 1.3*want {
			t.Errorf("tick expensive every %d cycles reads %.1f ns, directly measured %.1f ns", s.period, got, want)
		}
	}
}

func TestSampleGapsAreNotAStride(t *testing.T) {
	tr := newTracer(11)
	seen := map[int]bool{}
	sum := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		g := tr.gap()
		if g < 1 || g > 2*meanSampleGap-1 {
			t.Fatalf("gap %d outside [1, %d]", g, 2*meanSampleGap-1)
		}
		seen[g] = true
		sum += g
	}
	if len(seen) < meanSampleGap {
		t.Errorf("only %d distinct gaps", len(seen))
	}
	if mean := float64(sum) / n; mean < 0.95*meanSampleGap || mean > 1.05*meanSampleGap {
		t.Errorf("mean gap %.2f, want about %d", mean, meanSampleGap)
	}
}

// TestInvariantViolationIsAFailedOperation drops NoC traffic so the
// flow checker reports lost requests; the run must count the affected
// segments as failed and still produce a verdict.
func TestInvariantViolationIsAFailedOperation(t *testing.T) {
	sp := simSpecs["unshaped-mix"].short()
	sp.faults = &fault.Options{DropProb: 0.05}
	sp.checks = check.Options{FlowMaxAge: 5_000}
	res := runSim(sp, 1, time.Millisecond, false)
	if res.Failed == 0 || res.Correct {
		t.Fatalf("failed %d of %d, correct %t: the violation was not counted", res.Failed, res.Attempted, res.Correct)
	}
	var violation *check.Violation
	if !errors.As(res.firstErr, &violation) {
		t.Errorf("first failure %v is not an invariant violation", res.firstErr)
	}
	var out bytes.Buffer
	if err := res.write(&out, "faulty"); err != nil {
		t.Fatal(err)
	}
	v := lastJSON(t, out.String())
	if v.Failed != res.Failed || v.Attempted != res.Attempted {
		t.Errorf("verdict %+v, result failed %d attempted %d", v, res.Failed, res.Attempted)
	}
}

// TestSuiteJobErrorIsAFailedOperation runs a two-job catalogue in which
// one job always fails: it counts once per campaign, the other never.
func TestSuiteJobErrorIsAFailedOperation(t *testing.T) {
	build := func() []campaign.Job {
		ok := func(ctx context.Context, attempt int) (*harness.Table, error) {
			return &harness.Table{Columns: []string{"x"}, Rows: [][]string{{"1"}}}, nil
		}
		bad := func(ctx context.Context, attempt int) (*harness.Table, error) {
			return nil, campaign.Fatal(errors.New("boom"))
		}
		return []campaign.Job{{Name: "ok", Spec: "ok", Run: ok}, {Name: "bad", Spec: "bad", Run: bad}}
	}
	res := runSuite(build, time.Millisecond, false)
	if res.Attempted < 4 || 2*res.Failed != res.Attempted || res.Correct || !strings.Contains(fmt.Sprint(res.firstErr), "boom") {
		t.Fatalf("attempted %d failed %d correct %t first failure %v, want half failed, not correct, and the job's error",
			res.Attempted, res.Failed, res.Correct, res.firstErr)
	}
}

// TestSeedReachesTheSimulation: the same seed reproduces every digest,
// another seed changes them.
func TestSeedReachesTheSimulation(t *testing.T) {
	for _, sp := range shortSpecs() {
		a, b, c := runRep(sp, 5, untraced), runRep(sp, 5, untraced), runRep(sp, 6, untraced)
		last := sp.segments - 1
		if a.digests[last] == "" || a.digests[last] != b.digests[last] {
			t.Errorf("%s: seed 5 gives %q then %q", sp.name, a.digests[last], b.digests[last])
		}
		if a.digests[last] == c.digests[last] {
			t.Errorf("%s: seeds 5 and 6 give the same digest", sp.name)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile is the part of BENCHMARK.json the lint compares.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestNamesAndUnits lints every workload and metric name and unit, the
// metric counts, and BENCHMARK.json against the program.
func TestNamesAndUnits(t *testing.T) {
	check := func(defs []metricDef, max int) {
		if len(defs) > max {
			t.Errorf("%d metrics, at most %d allowed", len(defs), max)
		}
		seen := map[string]bool{}
		for _, d := range defs {
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("metric %q unit %q: bad name or unit, or a duplicate", d.name, d.unit)
			}
			seen[d.name] = true
		}
	}
	check(endToEnd, 16)
	check(perLayerDefs(), 128)
	for _, w := range workloads() {
		if !nameRE.MatchString(w) {
			t.Errorf("workload %q: bad name", w)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloads(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloads())
	}
	same := func(what string, file [][2]string, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", what, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i] != [2]string{d.name, d.unit} {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %s %s", what, i, file[i], d.name, d.unit)
			}
		}
	}
	var e2e, layer [][2]string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, [2]string{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, [2]string{m.Name, m.Unit})
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layer, perLayerDefs())
}

// TestEveryWorkloadEmitsEveryMetric runs each simulation workload
// (shortened) plain and traced, and the suite on a one-job catalogue,
// and checks that each verdict carries exactly the metric set of its
// mode, with units.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	table := func(ctx context.Context, attempt int) (*harness.Table, error) {
		return &harness.Table{Columns: []string{"x"}, Rows: [][]string{{"1"}}}, nil
	}
	oneJob := func() []campaign.Job { return []campaign.Job{{Name: "one", Spec: "one", Run: table}} }
	for _, traced := range []bool{false, true} {
		want := endToEnd
		if traced {
			want = perLayerDefs()
		}
		results := map[string]*result{"paper-suite": runSuite(oneJob, time.Millisecond, traced)}
		for _, sp := range shortSpecs() {
			results[sp.name] = runSim(sp, 1, time.Millisecond, traced)
		}
		for name, res := range results {
			var out bytes.Buffer
			if err := res.write(&out, name); err != nil {
				t.Fatal(err)
			}
			v := lastJSON(t, out.String())
			if !v.Correct || v.Attempted < 1 || v.Failed != 0 {
				t.Errorf("%s traced=%t: verdict correct=%t attempted=%d failed=%d", name, traced, v.Correct, v.Attempted, v.Failed)
			}
			if len(v.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", name, traced, len(v.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := v.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%t: metric %s missing or unit %q", name, traced, d.name, m.Unit)
				}
			}
		}
	}
}

// lastJSON parses the verdict on the last line of a report.
func lastJSON(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var v result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatalf("last line is not the verdict: %v", err)
	}
	return v
}
