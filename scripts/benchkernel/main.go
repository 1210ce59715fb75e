// Command benchkernel turns `go test -bench BenchmarkKernel -benchmem`
// output into BENCH_kernel.json and gates CI on it.
//
// Emit mode parses the benchmark text and writes a JSON summary: per
// benchmark ns/op, allocs/op, B/op and cycles/s, per-group
// fast-over-stepped speedup ratios, and the busy-path ratio. Check mode
// compares a freshly emitted summary against the committed baseline: the
// ratios are (mostly) machine-independent — both sides of each division
// ran on the same machine seconds apart — so they are what the gate
// tracks, with a tolerance for scheduling noise; absolute ns/op is
// recorded for humans but never gated, because CI runners are
// heterogeneous. Allocation counts ARE machine-independent (the
// simulator is deterministic), so allocs/op is gated per benchmark
// against the baseline.
//
// The speedup ratios cannot see a uniform slowdown of the secure steady
// state: if always-on BDC's per-cycle work gets slower in both modes,
// its fast/stepped ratio does not move. The busy-path ratio divides
// bdc/sjeng/fast throughput by noshaping/sjeng/stepped throughput — the
// shaped system against the unshaped one ticking every cycle — so it
// falls when the busy path gets slower.
//
// Usage:
//
//	go run ./scripts/benchkernel -emit -in bench_kernel.txt -out BENCH_kernel.json
//	go run ./scripts/benchkernel -check -baseline BENCH_kernel.json -current BENCH_kernel_current.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Metrics is one benchmark's measured values.
type Metrics struct {
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
}

// Summary is the BENCH_kernel.json schema.
type Summary struct {
	// Benchmarks maps "scheme/workload/mode" to its metrics.
	Benchmarks map[string]Metrics `json:"benchmarks"`
	// Speedups maps "scheme/workload" to fast cycles/s over stepped
	// cycles/s — the machine-independent number the CI gate tracks.
	Speedups map[string]float64 `json:"speedups"`
	// BusyPath maps busyPathGroup to its fast cycles/s over busyPathRef's
	// cycles/s.
	BusyPath map[string]float64 `json:"busy_path,omitempty"`
}

// busyPathGroup is the secure steady state the busy-path ratio tracks,
// and busyPathRef the same-run reference it divides by: the unshaped
// system on the same workload, ticking every cycle.
const (
	busyPathGroup = "bdc/sjeng"
	busyPathRef   = "noshaping/sjeng/stepped"
)

func main() {
	var (
		emit     = flag.Bool("emit", false, "parse benchmark text and write a JSON summary")
		check    = flag.Bool("check", false, "compare a current summary against the baseline")
		in       = flag.String("in", "", "emit: benchmark text input (default stdin)")
		out      = flag.String("out", "", "emit: JSON output path (default stdout)")
		baseline = flag.String("baseline", "BENCH_kernel.json", "check: committed baseline summary")
		current  = flag.String("current", "", "check: freshly emitted summary")
		tol      = flag.Float64("tol", 0.20, "check: allowed fractional speedup regression")
		allocTol = flag.Float64("alloc-tol", 0.05, "check: allowed fractional allocs/op growth (allocation counts are deterministic, so this only absorbs GC attribution noise)")
		minIdle  = flag.Float64("min-idle-speedup", 2.0, "check: required fast/stepped ratio on the idle headline group")
		idleKey  = flag.String("idle-key", "noshaping/sjeng", "check: the idle headline group")
	)
	flag.Parse()

	switch {
	case *emit:
		if err := runEmit(*in, *out); err != nil {
			fatal(err)
		}
	case *check:
		if err := runCheck(*baseline, *current, *tol, *allocTol, *minIdle, *idleKey); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("one of -emit or -check is required"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchkernel:", err)
	os.Exit(1)
}

func runEmit(in, out string) error {
	r := os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	sum, err := parse(bufio.NewScanner(r))
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if out == "" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(out, buf, 0o644)
}

// parse extracts BenchmarkKernel sub-benchmark lines. A line looks like
//
//	BenchmarkKernel/cs/sjeng/fast-8  2  1853806 ns/op  107917852 cycles/s  277520 B/op  2481 allocs/op
//
// i.e. name, iteration count, then (value, unit) pairs in any order.
// With `-count N` each benchmark repeats N times; parse keeps the best
// observation per name (max throughput, min ns/op) — best-of-N filters
// out scheduler noise far better than averaging, since interference only
// ever makes a run slower.
func parse(sc *bufio.Scanner) (*Summary, error) {
	sum := &Summary{Benchmarks: map[string]Metrics{}, Speedups: map[string]float64{}, BusyPath: map[string]float64{}}
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "BenchmarkKernel/") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "BenchmarkKernel/")
		if i := strings.LastIndex(name, "-"); i >= 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		var m Metrics
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q", name, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp = v
			case "allocs/op":
				m.AllocsPerOp = v
			case "B/op":
				m.BytesPerOp = v
			case "cycles/s":
				m.CyclesPerSec = v
			}
		}
		if prev, ok := sum.Benchmarks[name]; ok {
			if prev.CyclesPerSec > m.CyclesPerSec {
				m.CyclesPerSec = prev.CyclesPerSec
			}
			if prev.NsPerOp < m.NsPerOp {
				m.NsPerOp = prev.NsPerOp
			}
			// Allocation counts are deterministic for this simulator, but
			// GC-attributed noise can inflate a repetition; keep the minimum
			// observation so the record is the benchmark's true footprint
			// rather than whichever line happened to be parsed last.
			if prev.AllocsPerOp < m.AllocsPerOp {
				m.AllocsPerOp = prev.AllocsPerOp
			}
			if prev.BytesPerOp < m.BytesPerOp {
				m.BytesPerOp = prev.BytesPerOp
			}
		}
		sum.Benchmarks[name] = m
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(sum.Benchmarks) == 0 {
		return nil, fmt.Errorf("no BenchmarkKernel lines found")
	}
	for name, m := range sum.Benchmarks {
		group, ok := strings.CutSuffix(name, "/fast")
		if !ok {
			continue
		}
		stepped, ok := sum.Benchmarks[group+"/stepped"]
		if !ok || stepped.CyclesPerSec == 0 {
			return nil, fmt.Errorf("%s has no stepped counterpart", name)
		}
		sum.Speedups[group] = m.CyclesPerSec / stepped.CyclesPerSec
	}
	ref, okRef := sum.Benchmarks[busyPathRef]
	if m, ok := sum.Benchmarks[busyPathGroup+"/fast"]; ok && okRef && ref.CyclesPerSec > 0 {
		sum.BusyPath[busyPathGroup] = m.CyclesPerSec / ref.CyclesPerSec
	}
	return sum, nil
}

func load(path string) (*Summary, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sum Summary
	if err := json.Unmarshal(buf, &sum); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sum, nil
}

func runCheck(basePath, curPath string, tol, allocTol, minIdle float64, idleKey string) error {
	base, err := load(basePath)
	if err != nil {
		return err
	}
	cur, err := load(curPath)
	if err != nil {
		return err
	}
	var failures []string
	for group, want := range base.Speedups {
		got, ok := cur.Speedups[group]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline, missing from current run", group))
			continue
		}
		floor := want * (1 - tol)
		status := "ok"
		if got < floor {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf(
				"%s: fast/stepped speedup %.2fx below %.2fx (baseline %.2fx - %.0f%% tolerance)",
				group, got, floor, want, tol*100))
		}
		fmt.Printf("%-24s baseline %6.2fx  current %6.2fx  %s\n", group, want, got, status)
	}
	// Baselines recorded before the busy-path ratio existed carry none,
	// and gate nothing here.
	for group, want := range base.BusyPath {
		got, ok := cur.BusyPath[group]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s busy path: present in baseline, missing from current run", group))
			continue
		}
		floor := want * (1 - tol)
		status := "ok"
		if got < floor {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf(
				"%s: busy-path throughput %.3fx of %s below %.3fx (baseline %.3fx - %.0f%% tolerance)",
				group, got, busyPathRef, floor, want, tol*100))
		}
		fmt.Printf("%-24s busy path baseline %.3fx  current %.3fx  %s\n", group, want, got, status)
	}
	// Allocation counts, unlike wall-clock numbers, are machine-independent
	// for a deterministic simulator: the same build does the same work per
	// op everywhere. Gate them per benchmark so a heap regression on the
	// busy path cannot hide behind a fast CI runner. Baselines recorded
	// before allocation tracking (allocs_per_op == 0) are skipped.
	for name, want := range base.Benchmarks {
		if want.AllocsPerOp <= 0 {
			continue
		}
		got, ok := cur.Benchmarks[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline, missing from current run", name))
			continue
		}
		ceil := want.AllocsPerOp * (1 + allocTol)
		if got.AllocsPerOp > ceil {
			failures = append(failures, fmt.Sprintf(
				"%s: %.0f allocs/op above %.0f (baseline %.0f + %.0f%% tolerance)",
				name, got.AllocsPerOp, ceil, want.AllocsPerOp, allocTol*100))
		}
	}
	if got, ok := cur.Speedups[idleKey]; !ok {
		failures = append(failures, fmt.Sprintf("idle headline group %s missing from current run", idleKey))
	} else if got < minIdle {
		failures = append(failures, fmt.Sprintf(
			"idle headline group %s: speedup %.2fx below the required %.2fx", idleKey, got, minIdle))
	}
	if len(failures) > 0 {
		return fmt.Errorf("kernel throughput gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("kernel throughput gate passed")
	return nil
}
