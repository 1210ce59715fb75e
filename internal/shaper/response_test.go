package shaper

import (
	"testing"

	"camouflage/internal/mem"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// elevator records priority warnings.
type elevator struct {
	calls []struct {
		core, level int
		until       sim.Cycle
	}
}

func (e *elevator) Elevate(core, level int, until sim.Cycle) {
	e.calls = append(e.calls, struct {
		core, level int
		until       sim.Cycle
	}{core, level, until})
}

func newRespShaper(cfg Config, mc PriorityElevator) (*ResponseShaper, *port) {
	p := &port{}
	var id mem.IDs
	s, err := NewResponseShaper(2, cfg, 8, p, mc, sim.NewRNG(3), &id)
	if err != nil {
		panic(err)
	}
	return s, p
}

func resp(id uint64) *mem.Request {
	return &mem.Request{ID: id, Core: 2, Op: mem.Read, ReadyAt: 1}
}

func TestResponseThrottling(t *testing.T) {
	credits := make([]int, 10)
	credits[6] = 2 // two releases at [128,256) per window
	s, p := newRespShaper(cfgWith(credits, 4096, false), nil)
	for i := 0; i < 2; i++ {
		if !s.TrySend(1, resp(uint64(i+1))) {
			t.Fatal("response queue refused")
		}
	}
	for now := sim.Cycle(1); now <= 1000; now++ {
		s.Tick(now)
	}
	if len(p.sent) != 2 {
		t.Fatalf("released %d of 2", len(p.sent))
	}
	gap := p.sent[1].RespShaped - p.sent[0].RespShaped
	if gap < 128 {
		t.Fatalf("responses released %d apart, want >= 128", gap)
	}
}

func TestResponseQueueBoundBackpressures(t *testing.T) {
	credits := make([]int, 10)
	credits[9] = 1
	s, _ := newRespShaper(cfgWith(credits, 4096, false), nil)
	for i := 0; i < 8; i++ {
		if !s.TrySend(1, resp(uint64(i+1))) {
			t.Fatalf("queue refused response %d under bound", i)
		}
	}
	if s.TrySend(1, resp(99)) {
		t.Fatal("queue accepted response over bound")
	}
	if s.QueueLen() != 8 {
		t.Fatalf("queue length %d", s.QueueLen())
	}
}

func TestWarningSentWithUnusedCredits(t *testing.T) {
	credits := make([]int, 10)
	credits[0] = 5
	mc := &elevator{}
	s, _ := newRespShaper(cfgWith(credits, 512, true), mc)
	// No responses arrive: every window leaves credits unused and must
	// warn the memory controller.
	for now := sim.Cycle(1); now <= 1100; now++ {
		s.Tick(now)
	}
	if len(mc.calls) == 0 {
		t.Fatal("no priority warnings sent")
	}
	call := mc.calls[0]
	if call.core != 2 {
		t.Fatalf("warning for core %d, want 2", call.core)
	}
	if call.level <= ElevatedPriority {
		t.Fatalf("warning level %d not proportional to unused credits", call.level)
	}
	if s.Stats().WarningsSent == 0 {
		t.Fatal("warnings not counted")
	}
}

func TestNoWarningWhenCreditsFullyUsed(t *testing.T) {
	credits := make([]int, 10)
	credits[0] = 2
	mc := &elevator{}
	s, _ := newRespShaper(cfgWith(credits, 512, false), mc)
	// Saturate: every window's two credits are consumed.
	for now := sim.Cycle(1); now <= 2048; now++ {
		if s.QueueLen() < 4 {
			s.TrySend(now, resp(uint64(now)))
		}
		s.Tick(now)
	}
	if len(mc.calls) != 0 {
		t.Fatalf("warnings sent despite full credit use: %d", len(mc.calls))
	}
}

func TestFakeResponsesWhenStarved(t *testing.T) {
	credits := make([]int, 10)
	credits[2] = 4
	s, p := newRespShaper(cfgWith(credits, 512, true), nil)
	for now := sim.Cycle(1); now <= 2048; now++ {
		s.Tick(now)
	}
	if p.fakes() == 0 {
		t.Fatal("no fake responses while starved")
	}
	for _, r := range p.sent {
		if !r.Fake {
			t.Fatal("real response from nowhere")
		}
		if r.Core != 2 {
			t.Fatalf("fake response carries core %d, want 2", r.Core)
		}
	}
}

func TestRealResponsePriorityOverFake(t *testing.T) {
	credits := make([]int, 10)
	credits[0] = 8
	s, p := newRespShaper(cfgWith(credits, 512, true), nil)
	// Bank fakes with an idle window, then offer reals.
	for now := sim.Cycle(1); now <= 512; now++ {
		s.Tick(now)
	}
	for i := 0; i < 4; i++ {
		s.TrySend(513, resp(uint64(100+i)))
	}
	for now := sim.Cycle(513); now <= 600; now++ {
		s.Tick(now)
	}
	if p.reals() != 4 {
		t.Fatalf("reals released %d of 4", p.reals())
	}
}

func TestResponsePeriodicMode(t *testing.T) {
	cfg := ConstantRate(stats.DefaultBinning(), 64, 4096, true)
	s, p := newRespShaper(cfg, nil)
	s.TrySend(1, resp(1))
	for now := sim.Cycle(1); now <= 640; now++ {
		s.Tick(now)
	}
	if p.reals() != 1 {
		t.Fatal("real response not released in periodic mode")
	}
	if p.fakes() < 8 {
		t.Fatalf("fakes %d, want steady cadence", p.fakes())
	}
	for i := 1; i < len(p.sent); i++ {
		if gap := p.sent[i].RespShaped - p.sent[i-1].RespShaped; gap != 64 {
			t.Fatalf("periodic response cadence broken: gap %d", gap)
		}
	}
}

func TestResponseObliviousMode(t *testing.T) {
	credits := make([]int, 10)
	credits[4] = 8
	cfg := cfgWith(credits, 1024, true)
	cfg.Policy = PolicyOblivious
	s, p := newRespShaper(cfg, nil)
	s.TrySend(1, resp(1))
	for now := sim.Cycle(1); now <= 1024; now++ {
		s.Tick(now)
	}
	if p.reals() != 1 {
		t.Fatal("real response lost in oblivious mode")
	}
	if p.fakes() == 0 {
		t.Fatal("oblivious mode generated no fakes")
	}
}

func TestResponseReconfigure(t *testing.T) {
	credits := make([]int, 10)
	credits[0] = 1
	s, _ := newRespShaper(cfgWith(credits, 512, false), nil)
	newCredits := make([]int, 10)
	newCredits[9] = 3
	if err := s.Reconfigure(cfgWith(newCredits, 1024, true)); err != nil {
		t.Fatal(err)
	}
	got := s.Config()
	if got.Credits[9] != 3 || got.Window != 1024 || !got.GenerateFake {
		t.Fatalf("reconfigure not applied: %+v", got)
	}
}
