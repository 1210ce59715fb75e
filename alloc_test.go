package camouflage_test

import (
	"strings"
	"testing"

	"camouflage/internal/check"
	"camouflage/internal/core"
)

// TestBusyPathZeroAllocs is the allocation regression gate for the
// always-on shaping mode: after warm-up, a BDC system must advance with
// zero steady-state heap allocations per cycle batch. Every request is
// pooled, kernel events are plain data, diagnostic events stay
// structured until read, and the rings have grown to their working
// set — any new allocation on this path is a regression. The checked
// cases run the invariant monitor, as every harness run does.
//
// The measurement drives sim.Kernel.Run directly: the supervised run
// path (System.Run) allocates a handful of closures per call, which is
// per-call overhead, not per-cycle traffic.
func TestBusyPathZeroAllocs(t *testing.T) {
	cases := []struct {
		workload []string
		checked  bool
	}{
		{[]string{"sjeng"}, false},
		{[]string{"sjeng"}, true},
		{[]string{"mcf", "astar", "gcc", "sjeng"}, true},
	}
	for _, c := range cases {
		name := strings.Join(c.workload, ",")
		if c.checked {
			name += "-checked"
		}
		t.Run(name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Scheme = core.BDC
			req := core.DefaultShaperConfig()
			resp := core.DefaultShaperConfig()
			cfg.ReqShaperCfg = &req
			cfg.RespShaperCfg = &resp
			sys, err := core.NewSystem(cfg, benchKernelSources(cfg.Cores, c.workload))
			if err != nil {
				t.Fatal(err)
			}
			if c.checked {
				sys.EnableChecks(check.Options{})
			}
			// Warm-up: the pool fills to the in-flight working set and
			// every queue, pipe, map and heap reaches its steady-state
			// capacity.
			sys.Kernel.Run(400_000)

			allocs := testing.AllocsPerRun(5, func() {
				sys.Kernel.Run(20_000)
			})
			if allocs != 0 {
				t.Fatalf("busy path allocated %.1f times per 20k-cycle batch, want 0", allocs)
			}
		})
	}
}
