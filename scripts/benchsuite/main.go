// Command benchsuite measures how long the paper's evaluation takes to
// regenerate and records it in BENCH_suite.json.
//
// It runs `experiments -jobs 2 -journal` five times, takes each run's
// wall time, and reads every job's elapsed_ms from that run's campaign
// journal. The best (fastest) run is reported: interference from other
// load only ever slows a run down. Alongside the per-job times the
// summary names the campaign's critical-path job (the longest one), the
// total job time, the number of runs it is the best of, and the machine.
//
// Each summary is stored under a label, and the file keeps the other
// labels it already holds, so one file can carry a before/after pair:
//
//	go run ./scripts/benchsuite
//	go run ./scripts/benchsuite -bin /path/to/baseline/experiments -label baseline
//
// Without -bin, ./cmd/experiments is built from the working tree.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"camouflage/internal/campaign"
)

// Machine describes the host a summary was measured on.
type Machine struct {
	CPUModel  string `json:"cpu_model,omitempty"`
	CPUs      int    `json:"cpus"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	GoVersion string `json:"go_version"`
}

// Summary is one label's entry in BENCH_suite.json.
type Summary struct {
	Command string  `json:"command"`
	Machine Machine `json:"machine"`
	// BestOf is the number of runs; the fields below describe the
	// fastest of them, except WallSRuns, which lists every run.
	BestOf    int       `json:"best_of"`
	WallS     float64   `json:"wall_s"`
	WallSRuns []float64 `json:"wall_s_runs"`
	// TotalJobS sums every job's elapsed time.
	TotalJobS float64 `json:"total_job_s"`
	// CriticalPath is the longest job: no worker count finishes the
	// campaign faster than it.
	CriticalPath   string `json:"critical_path"`
	CriticalPathMS int64  `json:"critical_path_ms"`
	// JobsMS maps each job to its journal elapsed_ms.
	JobsMS map[string]int64 `json:"jobs_ms"`
}

func main() {
	var (
		bin   = flag.String("bin", "", "experiments binary to measure (default: build ./cmd/experiments)")
		label = flag.String("label", "current", "key of this summary in "+out)
	)
	flag.Parse()
	if err := run(*bin, *label); err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(1)
	}
}

const (
	jobs = 2 // the campaign's worker count, as in perfbench's paper-suite
	runs = 5 // the fastest run is reported
	// out keeps the summaries stored under other labels.
	out = "BENCH_suite.json"
)

func run(bin, label string) error {
	tmp, err := os.MkdirTemp("", "benchsuite")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if bin == "" {
		bin = filepath.Join(tmp, "experiments")
		build := exec.Command("go", "build", "-o", bin, "./cmd/experiments")
		build.Stdout, build.Stderr = os.Stderr, os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("building ./cmd/experiments: %w", err)
		}
	}

	sum := &Summary{
		Command: fmt.Sprintf("experiments -jobs %d -journal", jobs),
		Machine: machine(),
		BestOf:  runs,
	}
	var firstOut []byte
	for i := 0; i < runs; i++ {
		journal := filepath.Join(tmp, fmt.Sprintf("run%d.jsonl", i))
		var stdout bytes.Buffer
		cmd := exec.Command(bin, "-jobs", fmt.Sprint(jobs), "-journal", journal)
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		wall := time.Since(start).Seconds()
		if i == 0 {
			firstOut = stdout.Bytes()
		} else if !bytes.Equal(stdout.Bytes(), firstOut) {
			return fmt.Errorf("run %d: output differs from run 1", i+1)
		}
		sum.WallSRuns = append(sum.WallSRuns, round3(wall))
		fmt.Fprintf(os.Stderr, "benchsuite: run %d/%d: %.2f s\n", i+1, runs, wall)
		if i > 0 && wall >= sum.WallS {
			continue
		}
		jobsMS, err := journalTimes(journal)
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		sum.WallS, sum.JobsMS = round3(wall), jobsMS
	}
	var total int64
	names := make([]string, 0, len(sum.JobsMS))
	for name := range sum.JobsMS {
		names = append(names, name)
	}
	sort.Strings(names) // ties on the critical path go to the first name
	for _, name := range names {
		ms := sum.JobsMS[name]
		total += ms
		if ms > sum.CriticalPathMS {
			sum.CriticalPath, sum.CriticalPathMS = name, ms
		}
	}
	sum.TotalJobS = round3(float64(total) / 1000)
	return merge(out, label, sum)
}

// journalTimes reads each done job's elapsed_ms from a campaign journal.
func journalTimes(path string) (map[string]int64, error) {
	j, err := campaign.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	times := map[string]int64{}
	for _, rec := range j.Records() {
		if rec.Status != campaign.StatusDone {
			return nil, fmt.Errorf("job %s ended %s", rec.Job, rec.Status)
		}
		times[rec.Job] = rec.ElapsedMS
	}
	if len(times) == 0 {
		return nil, fmt.Errorf("journal %s holds no jobs", path)
	}
	return times, nil
}

// merge writes sum under label into the JSON object at path, keeping the
// summaries stored under other labels.
func merge(path, label string, sum *Summary) error {
	all := map[string]json.RawMessage{}
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	enc, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	all[label] = enc
	buf, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func machine() Machine {
	m := Machine{CPUs: runtime.NumCPU(), OS: runtime.GOOS, Arch: runtime.GOARCH, GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func round3(x float64) float64 { return float64(int64(x*1000+0.5)) / 1000 }
