package memctrl

import (
	"reflect"
	"testing"

	"camouflage/internal/dram"
	"camouflage/internal/mem"
	"camouflage/internal/sim"
)

// arrivals stands in for the request link: it ticks before the channel
// and the controller and offers each scheduled request at its cycle. It
// notes the arrivals that land while the controller sleeps behind its
// shut issue gate.
type arrivals struct {
	c        *Controller
	at       map[sim.Cycle][]*mem.Request
	intoShut int
}

func (a *arrivals) NextWake(now sim.Cycle) sim.Cycle { return now + 1 }

func (a *arrivals) Tick(now sim.Cycle) {
	for _, r := range a.at[now] {
		if a.c.slot.Asleep() && a.c.QueueLen() > 0 {
			a.intoShut++
		}
		a.c.TrySend(now, r)
	}
}

// addrIn returns the first line address decoding to bank and row.
func addrIn(m *dram.AddrMap, bank int, row uint64) uint64 {
	for a := uint64(0); ; a += mem.LineSize {
		if l := m.Decode(a, 0); l.Bank == bank && l.Row == row && l.Rank == 0 && l.Channel == 0 {
			return a
		}
	}
}

// gateRun is what a gate-shut run is compared on.
type gateRun struct {
	stats    []ControllerStats
	done     []mem.Request
	intoShut int
}

func runGate(fast bool) gateRun {
	c, ch := testSetup(FRFCFS{}, false)
	out := &retired{}
	for core := 0; core < 4; core++ {
		c.SetEgress(core, out)
	}
	m := ch.AddrMap()
	id := uint64(0)
	rq := func(core, bank int, row uint64) *mem.Request {
		id++
		return req(id, core, addrIn(m, bank, row))
	}
	// Row conflicts in bank 0 shut the gate behind each issue; arrivals
	// to idle banks land inside those spans and must open it at once.
	at := map[sim.Cycle][]*mem.Request{
		10:  {rq(0, 0, 1), rq(1, 0, 2), rq(2, 0, 3), rq(3, 0, 4)},
		14:  {rq(1, 3, 0)},
		40:  {rq(2, 5, 7)},
		75:  {rq(3, 0, 5), rq(0, 6, 1)},
		120: {rq(0, 0, 6)},
	}
	a := &arrivals{c: c, at: at}
	k := sim.NewKernel(1)
	k.Register(a)
	k.Register(ch)
	k.Register(c)
	k.SetFastPath(fast)
	var r gateRun
	for k.Now() < 1000 {
		k.Run(25)
		r.stats = append(r.stats, c.Stats())
	}
	r.done, r.intoShut = out.got, a.intoShut
	return r
}

// retired records completions at the egress in order.
type retired struct{ got []mem.Request }

func (r *retired) TrySend(_ sim.Cycle, req *mem.Request) bool {
	r.got = append(r.got, *req)
	return true
}

// TestGateShutSleepMatchesTicking compares a controller that sleeps
// while its issue gate is shut against one ticked every cycle, with
// arrivals landing inside the shut spans: every issue and completion
// cycle, and the occupancy accounting, must agree.
func TestGateShutSleepMatchesTicking(t *testing.T) {
	fast, stepped := runGate(true), runGate(false)
	if fast.intoShut == 0 {
		t.Fatal("no arrival landed while the controller slept behind its shut gate")
	}
	if len(stepped.done) != 9 {
		t.Fatalf("stepped run completed %d of 9 requests", len(stepped.done))
	}
	if !reflect.DeepEqual(fast.stats, stepped.stats) {
		t.Fatalf("stats differ:\nfast    %+v\nstepped %+v", fast.stats, stepped.stats)
	}
	if !reflect.DeepEqual(fast.done, stepped.done) {
		t.Fatalf("completions differ:\nfast    %+v\nstepped %+v", fast.done, stepped.done)
	}
}
