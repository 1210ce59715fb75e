package noc

import (
	"reflect"
	"testing"

	"camouflage/internal/mem"
	"camouflage/internal/sim"
)

type collector struct {
	got  []*mem.Request
	full bool
}

func (c *collector) TrySend(_ sim.Cycle, req *mem.Request) bool {
	if c.full {
		return false
	}
	c.got = append(c.got, req)
	return true
}

func newTestLink(cores int, latency sim.Cycle, width int) (*Link, *collector) {
	l := NewLink("test", cores, 4, latency, width)
	dst := &collector{}
	l.SetRoute(func(*mem.Request) mem.ReqPort { return dst })
	return l, dst
}

func TestLinkDeliversAfterLatency(t *testing.T) {
	l, dst := newTestLink(2, 8, 1)
	req := &mem.Request{ID: 1, Core: 0}
	if !l.Input(0).Push(req) {
		t.Fatal("input refused")
	}
	for now := sim.Cycle(1); now <= 8; now++ {
		l.Tick(now)
	}
	if len(dst.got) != 0 {
		t.Fatal("delivered before latency elapsed")
	}
	l.Tick(9)
	if len(dst.got) != 1 || dst.got[0] != req {
		t.Fatalf("delivery failed: %v", dst.got)
	}
}

func TestLinkWidthOnePerCycle(t *testing.T) {
	l, dst := newTestLink(4, 1, 1)
	for core := 0; core < 4; core++ {
		l.Input(core).Push(&mem.Request{ID: uint64(core + 1), Core: core})
	}
	for now := sim.Cycle(1); now <= 20; now++ {
		l.Tick(now)
	}
	if len(dst.got) != 4 {
		t.Fatalf("delivered %d of 4", len(dst.got))
	}
	if st := l.Stats(); st.Injected != 4 {
		t.Fatalf("injected %d", st.Injected)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	l, _ := newTestLink(2, 1, 1)
	// Saturate both inputs, count grants per core.
	counts := [2]int{}
	l.AddTap(func(_ sim.Cycle, req *mem.Request) { counts[req.Core]++ })
	for now := sim.Cycle(1); now <= 100; now++ {
		for core := 0; core < 2; core++ {
			if l.Input(core).Len() == 0 {
				l.Input(core).Push(&mem.Request{Core: core})
			}
		}
		l.Tick(now)
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("starvation: %v", counts)
	}
	diff := counts[0] - counts[1]
	if diff < -5 || diff > 5 {
		t.Fatalf("unfair arbitration: %v", counts)
	}
}

func TestBackpressureHoldsTraffic(t *testing.T) {
	l, dst := newTestLink(1, 1, 1)
	dst.full = true
	l.Input(0).Push(&mem.Request{ID: 1})
	for now := sim.Cycle(1); now <= 50; now++ {
		l.Tick(now)
	}
	if len(dst.got) != 0 {
		t.Fatal("delivered through backpressure")
	}
	if l.Stats().StallCycles == 0 {
		t.Fatal("stalls not counted")
	}
	dst.full = false
	l.Tick(51)
	if len(dst.got) != 1 {
		t.Fatal("traffic lost after backpressure lifted")
	}
}

func TestDeliveryPreservesOrderPerCore(t *testing.T) {
	l, dst := newTestLink(1, 3, 1)
	for i := 0; i < 10; i++ {
		l.Input(0).Push(&mem.Request{ID: uint64(i)})
		l.Tick(sim.Cycle(i + 1))
	}
	for now := sim.Cycle(11); now <= 30; now++ {
		l.Tick(now)
	}
	if len(dst.got) != 10 {
		t.Fatalf("delivered %d of 10", len(dst.got))
	}
	for i, r := range dst.got {
		if r.ID != uint64(i) {
			t.Fatalf("order broken: %d at position %d", r.ID, i)
		}
	}
}

func TestTapsSeeAllInjectedTraffic(t *testing.T) {
	l, _ := newTestLink(2, 1, 2)
	var tapped []uint64
	l.AddTap(func(_ sim.Cycle, req *mem.Request) { tapped = append(tapped, req.ID) })
	l.Input(0).Push(&mem.Request{ID: 1, Core: 0})
	l.Input(1).Push(&mem.Request{ID: 2, Core: 1})
	l.Tick(1)
	if len(tapped) != 2 {
		t.Fatalf("tap saw %d of 2", len(tapped))
	}
}

func TestRouteDemux(t *testing.T) {
	l := NewLink("resp", 2, 4, 1, 1)
	dsts := [2]*collector{{}, {}}
	l.SetRoute(func(req *mem.Request) mem.ReqPort { return dsts[req.Core] })
	l.Input(0).Push(&mem.Request{ID: 1, Core: 0})
	l.Input(1).Push(&mem.Request{ID: 2, Core: 1})
	for now := sim.Cycle(1); now <= 10; now++ {
		l.Tick(now)
	}
	if len(dsts[0].got) != 1 || len(dsts[1].got) != 1 {
		t.Fatalf("demux failed: %d / %d", len(dsts[0].got), len(dsts[1].got))
	}
}

func TestTickWithoutRoutePanics(t *testing.T) {
	l := NewLink("x", 1, 1, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("tick without route did not panic")
		}
	}()
	l.Tick(1)
}

func TestPerCoreInjectionStats(t *testing.T) {
	l, _ := newTestLink(3, 1, 3)
	l.Input(2).Push(&mem.Request{Core: 2})
	l.Tick(1)
	st := l.Stats()
	if st.PerCoreInjected[2] != 1 || st.PerCoreInjected[0] != 0 {
		t.Fatalf("per-core stats %v", st.PerCoreInjected)
	}
}

// TestSkipCountsStallsAtPipeBound covers the state where the pipe sits
// at its occupancy bound behind an immature head with nothing queued: a
// fault-delayed flit holds the channel, so every tick counts a stall
// even though the link's next wake is the head's maturity. A run that
// skips those cycles must count the same stalls as one that ticks them.
func TestSkipCountsStallsAtPipeBound(t *testing.T) {
	run := func(fast bool) LinkStats {
		l, dst := newTestLink(2, 2, 1)
		first := true
		l.SetFaultHook(func(sim.Cycle, *mem.Request) (FaultAction, sim.Cycle) {
			if first {
				first = false
				return FaultDelay, 50
			}
			return FaultNone, 0
		})
		// Exactly the pipe's bound of (latency+1)*width = 3 flits: the
		// inputs drain, and the delayed head keeps the pipe full until it
		// matures at cycle 53.
		for i := 0; i < 3; i++ {
			if !l.Input(i % 2).Push(&mem.Request{ID: uint64(i + 1), Core: i % 2}) {
				t.Fatal("input refused")
			}
		}
		k := sim.NewKernel(1)
		k.Register(l)
		k.SetFastPath(fast)
		k.Run(100)
		if len(dst.got) != 3 {
			t.Fatalf("fast=%v: delivered %d of 3", fast, len(dst.got))
		}
		return l.Stats()
	}
	fast, stepped := run(true), run(false)
	if stepped.StallCycles == 0 {
		t.Fatal("stepped run never reached the pipe bound")
	}
	if !reflect.DeepEqual(fast, stepped) {
		t.Fatalf("fast-path stats %+v, stepped %+v", fast, stepped)
	}
}
