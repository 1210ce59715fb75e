package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"camouflage/internal/harness"
	"camouflage/internal/suite"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd is the untraced (--trace 0) metric set. Every workload reports
// every one of them; see README.md for what each means per workload.
var endToEnd = []metricDef{
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb", "MiB"},
}

// simLayers are the simulator layers the traced kernel wraps, in the
// order core.NewSystem registers them with the kernel (the monitor that
// EnableChecks adds comes last).
var simLayers = []string{"cpu", "shaper.req", "noc.req", "dram", "memctrl", "shaper.resp", "noc.resp", "check"}

// perLayerDefs is the traced (--trace 1) metric set: simulator layers,
// kernel, simulated work, host and set-up, then the suite's harness and
// campaign layers and the model's agreement with the paper. Every
// workload reports every one; a layer a workload does not exercise
// reads 0 (the shaper on unshaped-mix, the harness on the simulation
// workloads, the simulator layers on paper-suite).
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, l := range simLayers {
		defs = append(defs,
			metricDef{l + ".ticks_per_cycle", "count"},
			metricDef{l + ".noop_share", "ratio"},
			metricDef{l + ".ns_per_tick", "ns"},
			metricDef{l + ".time_share", "ratio"},
		)
	}
	defs = append(defs,
		metricDef{"sim.skip_share", "ratio"},
		metricDef{"sim.jumps_per_kcycle", "1/kcycle"},
		metricDef{"sim.wake_polls_per_cycle", "count"},
		metricDef{"sim.residual_ns_per_cycle", "ns"},
		metricDef{"sim.tracing_overhead", "ratio"},

		metricDef{"cpu.ipc", "work/cycle"},
		metricDef{"cpu.mem_stall_share", "ratio"},
		metricDef{"cpu.shaper_stall_share", "ratio"},
		metricDef{"shaper.req.fake_share", "ratio"},
		metricDef{"shaper.resp.fake_share", "ratio"},
		metricDef{"shaper.req.delay_per_real", "cycles"},
		metricDef{"shaper.req.drift_l1", "L1"},
		metricDef{"shaper.resp.drift_l1", "L1"},
		metricDef{"noc.req.delivered_per_kcycle", "1/kcycle"},
		metricDef{"noc.req.stall_share", "ratio"},
		metricDef{"noc.resp.stall_share", "ratio"},
		metricDef{"memctrl.occupancy_mean", "requests"},
		metricDef{"memctrl.reject_share", "ratio"},
		metricDef{"dram.row_hit_rate", "ratio"},
		metricDef{"dram.bus_busy_share", "ratio"},

		metricDef{"host.allocs_per_mcycle", "allocs/Mcycle"},
		metricDef{"host.gc_pause_ms", "ms"},
		metricDef{"setup.new_system_ms", "ms"},
		metricDef{"setup.warmup_ms", "ms"},
	)
	for _, name := range suiteJobNames() {
		defs = append(defs, metricDef{jobMetric(name), "s"})
	}
	defs = append(defs,
		metricDef{"campaign.job_s_total", "s"},
		metricDef{"campaign.queue_wait_s", "s"},
		metricDef{"campaign.critical_path_s", "s"},
		metricDef{"campaign.retries", "count"},
		metricDef{"model.headline_err", "ratio"},
		metricDef{"model.camouflage_mi_bits", "bits"},
	)
	return defs
}

// suiteJobNames lists the campaign jobs of the canonical catalogue. Job
// names do not depend on the parameters.
func suiteJobNames() []string {
	var names []string
	for _, j := range suite.Jobs(suite.Build(suiteParams(1))) {
		names = append(names, j.Name)
	}
	return names
}

// jobMetric is the per-layer metric name of one suite job's run time.
func jobMetric(job string) string {
	return "harness." + strings.ReplaceAll(job, "/", "-") + ".job_s"
}

// suiteParams are the paper-suite parameters cmd/experiments uses by
// default, with the workload seed.
func suiteParams(seed uint64) suite.Params {
	return suite.Params{Cycles: harness.DefaultRunCycles, Seed: seed, Adversary: "gcc"}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict for one run. samples records, per
// metric, how many observations its value summarises, and firstErr the
// first failure's cause; both go into the human-readable report, not
// the JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	samples   map[string]int
	firstErr  error
}

// fill sets every metric of defs from values, reading 0 for one a
// workload does not produce, and records n as each one's sample count
// unless counts names another.
func (r *result) fill(defs []metricDef, values map[string]float64, n int, counts map[string]int) {
	r.Metrics = make(map[string]metric, len(defs))
	r.samples = make(map[string]int, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		if c, ok := counts[d.name]; ok {
			r.samples[d.name] = c
		} else if _, ok := values[d.name]; ok {
			r.samples[d.name] = n
		}
	}
}

// write prints the report: one line per metric with unit and sample
// count, then the JSON verdict as the last line.
func (r *result) write(w io.Writer, header string) error {
	fmt.Fprintln(w, header)
	fmt.Fprintf(w, "correct=%t attempted=%d failed=%d fail_ratio=%.4f\n",
		r.Correct, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	if r.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", r.firstErr)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-36s %16.6f %-14s n=%d\n", name, m.Value, m.Unit, r.samples[name])
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
