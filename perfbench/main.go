// Command perfbench is the repository's benchmark: it runs one named
// workload for a time budget, checks its outputs, and prints every
// metric with its unit and sample count, ending with a one-line JSON
// verdict. See README.md for the workloads and metrics.
//
//	go run . --workload bdc-secure --seed 1 --seconds 10 --trace 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloads lists every workload name.
func workloads() []string {
	names := []string{"paper-suite"}
	for name := range simSpecs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloads()))
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	traced := *trace == 1

	var res *result
	if sp, ok := simSpecs[*workload]; ok {
		res = runSim(sp, *seed, budget, traced)
	} else if *workload == "paper-suite" {
		res = runSuite(catalogue(*seed), budget, traced)
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (valid: %v)\n", *workload, workloads())
		return 2
	}
	header := fmt.Sprintf("workload %s seed %d traced %t", *workload, *seed, traced)
	if err := res.write(stdout, header); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}
