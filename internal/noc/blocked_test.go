package noc

import (
	"reflect"
	"testing"

	"camouflage/internal/dram"
	"camouflage/internal/mem"
	"camouflage/internal/memctrl"
	"camouflage/internal/sim"
)

// topUp stands in for the request shapers: it ticks before the link and
// keeps every input full with reads to random lines until it has sent
// limit requests.
type topUp struct {
	l     *Link
	rng   *sim.RNG
	sent  uint64
	limit uint64
}

func (f *topUp) NextWake(now sim.Cycle) sim.Cycle { return now + 1 }

func (f *topUp) Tick(now sim.Cycle) {
	for core := range f.l.inputs {
		for f.sent < f.limit && !f.l.Input(core).Full() {
			f.sent++
			f.l.Input(core).Push(&mem.Request{ID: f.sent, Core: core, Addr: f.rng.Uint64n(1<<24) * mem.LineSize, CreatedAt: now})
		}
	}
}

// retired records completions at the controller's egress.
type retired struct {
	got []mem.Request
}

func (r *retired) TrySend(_ sim.Cycle, req *mem.Request) bool {
	r.got = append(r.got, *req)
	return true
}

// blockWatch ticks last and counts the cycles the link ended asleep with
// its pipe at the bound behind a head the full controller refused.
type blockWatch struct {
	l     *Link
	count int
}

func (w *blockWatch) NextWake(now sim.Cycle) sim.Cycle { return now + 1 }

func (w *blockWatch) Tick(sim.Cycle) {
	if w.l.slot.Asleep() && w.l.blocked != nil && w.l.pipe.Len() >= w.l.capacity() {
		w.count++
	}
}

// linkRun is what a saturated link/controller run is compared on, after
// every segment.
type linkRun struct {
	link    []LinkStats
	rr      []int
	mc      []memctrl.ControllerStats
	done    []mem.Request
	blocked int
}

func runSaturatedLink(fast bool, n, seg sim.Cycle) linkRun {
	g := dram.DefaultGeometry()
	tm := dram.DDR3_1333()
	ch := dram.NewChannel(tm, g, dram.NewAddrMap(g))
	mc := memctrl.NewController(ch, memctrl.FRFCFS{}, 4, 4)
	out := &retired{}
	for core := 0; core < 4; core++ {
		mc.SetEgress(core, out)
	}
	l := NewLink("request", 4, 2, 2, 1)
	l.SetRoute(func(*mem.Request) mem.ReqPort { return mc })
	w := &blockWatch{l: l}

	k := sim.NewKernel(1)
	k.Register(&topUp{l: l, rng: sim.NewRNG(3), limit: 400})
	k.Register(l)
	k.Register(ch)
	k.Register(mc)
	k.Register(w)
	k.SetFastPath(fast)
	var r linkRun
	for k.Now() < n {
		k.Run(seg)
		r.link = append(r.link, l.Stats())
		r.rr = append(r.rr, l.rr)
		r.mc = append(r.mc, mc.Stats())
	}
	r.done, r.blocked = out.got, w.count
	return r
}

// TestLinkBlockedOnFullControllerMatchesTicking compares a request link
// that sleeps while a full controller refuses its mature head, with its
// pipe at the bound, against one ticked every cycle: the delivery and
// arbitration stalls, the round-robin pointer, the controller's
// rejection count and every completion must agree.
func TestLinkBlockedOnFullControllerMatchesTicking(t *testing.T) {
	fast := runSaturatedLink(true, 20_000, 500)
	stepped := runSaturatedLink(false, 20_000, 500)
	if fast.blocked == 0 {
		t.Fatal("the link never slept blocked at its pipe bound")
	}
	if len(stepped.done) != 400 {
		t.Fatalf("stepped run completed %d of 400 requests", len(stepped.done))
	}
	last := len(stepped.mc) - 1
	if stepped.mc[last].Rejected == 0 || stepped.link[last].StallCycles == 0 {
		t.Fatalf("no backpressure: controller %+v, link %+v", stepped.mc[last], stepped.link[last])
	}
	for i := range stepped.link {
		if !reflect.DeepEqual(fast.link[i], stepped.link[i]) {
			t.Fatalf("segment %d link stats: fast %+v, stepped %+v", i, fast.link[i], stepped.link[i])
		}
		if fast.rr[i] != stepped.rr[i] {
			t.Fatalf("segment %d round-robin pointer: fast %d, stepped %d", i, fast.rr[i], stepped.rr[i])
		}
		if !reflect.DeepEqual(fast.mc[i], stepped.mc[i]) {
			t.Fatalf("segment %d controller stats: fast %+v, stepped %+v", i, fast.mc[i], stepped.mc[i])
		}
	}
	if !reflect.DeepEqual(fast.done, stepped.done) {
		t.Fatal("completions differ")
	}
}
