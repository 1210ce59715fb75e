package shaper

import (
	"bytes"
	"reflect"
	"testing"

	"camouflage/internal/ckpt"
	"camouflage/internal/mem"
	"camouflage/internal/sim"
)

// feeder stands in for the core: it ticks before the shaper and, at the
// cycles in at, draws an ID and offers a real request.
type feeder struct {
	s   *RequestShaper
	ids *mem.IDs
	at  map[sim.Cycle]bool
}

func (f *feeder) NextWake(now sim.Cycle) sim.Cycle { return now + 1 }

func (f *feeder) Tick(now sim.Cycle) {
	if f.at[now] {
		f.s.TrySend(now, &mem.Request{ID: f.ids.Next(), Addr: uint64(now) * mem.LineSize, CreatedAt: now})
	}
}

// released is what the output queue held for one released request.
type released struct {
	ID       uint64
	ShapedAt sim.Cycle
	Fake     bool
}

// drainer stands in for the request link: it ticks after the shaper,
// pops the shaper's output at the cycles in pop, and draws an ID at the
// cycles in draw, like a response shaper building a fake.
type drainer struct {
	out       *mem.Queue
	ids       *mem.IDs
	pop, draw map[sim.Cycle]bool
	got       []released
	drawn     []uint64
	// blockedAsleep counts the cycles shaper was asleep against its full
	// output when the drainer ticked.
	shaper        *RequestShaper
	blockedAsleep int
}

func (d *drainer) NextWake(now sim.Cycle) sim.Cycle { return now + 1 }

func (d *drainer) Tick(now sim.Cycle) {
	if d.shaper.slot.Asleep() && d.shaper.blocked() {
		d.blockedAsleep++
	}
	if d.draw[now] {
		d.drawn = append(d.drawn, d.ids.Next())
	}
	if d.pop[now] {
		if r := d.out.Pop(); r != nil {
			d.got = append(d.got, released{r.ID, r.ShapedAt, r.Fake})
		}
	}
}

// blockedRun is everything a blocked-span run can be compared on.
type blockedRun struct {
	// snapshots holds the shaper's state after every segment.
	snapshots     [][]byte
	lastID        uint64
	nextDraw      uint64
	stats         Stats
	got           []released
	drawn         []uint64
	blockedAsleep int
}

// runBlocked drives a credit-mode request shaper whose NoC input (a
// two-entry queue, full from the start) drains only at the pop cycles,
// with real arrivals at the feed cycles and outside ID draws at the draw
// cycles, for n cycles on a kernel with skipping on or off. The run
// returns settled after every segment of seg cycles, where the shaper's
// state is recorded: a blocked real head's stamp is only visible before
// its release restamps it.
func runBlocked(t *testing.T, fast bool, n, seg sim.Cycle, feed, pop, draw []sim.Cycle) blockedRun {
	t.Helper()
	set := func(cs []sim.Cycle) map[sim.Cycle]bool {
		m := make(map[sim.Cycle]bool)
		for _, c := range cs {
			m[c] = true
		}
		return m
	}
	var ids mem.IDs
	out := mem.NewQueue(2)
	out.Push(&mem.Request{ID: 1 << 40})
	out.Push(&mem.Request{ID: 1<<40 + 1})
	// Two windows' worth of unused credits let the fake generator fire
	// in several bins, so blocked spans cross fake-bin horizons; the
	// short window puts replenishments inside them.
	cfg := cfgWith([]int{2, 2, 2, 1, 1, 1, 1, 1, 1, 1}, 128, true)
	cfg.MaxUnusedWindows = 2
	s, err := NewRequestShaper(0, cfg, 8, out, sim.NewRNG(9), &ids)
	if err != nil {
		t.Fatal(err)
	}
	d := &drainer{out: out, ids: &ids, pop: set(pop), draw: set(draw), shaper: s}
	k := sim.NewKernel(1)
	k.Register(&feeder{s: s, ids: &ids, at: set(feed)})
	k.Register(s)
	k.Register(d)
	k.SetFastPath(fast)
	var snapshots [][]byte
	for k.Now() < n {
		k.Run(seg)
		var e ckpt.Encoder
		s.Snapshot(&e)
		snapshots = append(snapshots, e.Bytes())
	}
	return blockedRun{
		snapshots:     snapshots,
		lastID:        ids.Last(),
		nextDraw:      s.rng.Uint64(),
		stats:         s.Stats(),
		got:           d.got,
		drawn:         d.drawn,
		blockedAsleep: d.blockedAsleep,
	}
}

// TestBlockedShaperSleepMatchesTicking compares a request shaper that
// sleeps against its full output with one ticked every cycle: the
// deferred fake retries must burn the same IDs and RNG draws, in the
// same interleaving with outside draws before and after it in tick
// order, and a blocked real head must carry the same release stamp.
func TestBlockedShaperSleepMatchesTicking(t *testing.T) {
	every := func(from, to, step sim.Cycle) []sim.Cycle {
		var cs []sim.Cycle
		for c := from; c <= to; c += step {
			cs = append(cs, c)
		}
		return cs
	}
	cases := []struct {
		name string
		feed []sim.Cycle
	}{
		// No real traffic: every admitted cycle of a blocked span is a
		// burned fake retry.
		{"fake-only", nil},
		// Real arrivals queue behind the full output; the head is
		// restamped on every admitted retry.
		{"real-head", []sim.Cycle{5, 6, 300, 301, 302, 900}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 2000
			pop := every(150, n, 97)
			draw := every(3, n, 11)
			fast := runBlocked(t, true, n, 50, tc.feed, pop, draw)
			stepped := runBlocked(t, false, n, 50, tc.feed, pop, draw)
			if fast.blockedAsleep == 0 {
				t.Fatal("the shaper never slept against its full output")
			}
			if stepped.blockedAsleep != 0 {
				t.Fatal("the reference run slept")
			}
			if fast.lastID != stepped.lastID || fast.nextDraw != stepped.nextDraw {
				t.Fatalf("ID counter / RNG: fast %d/%#x, stepped %d/%#x",
					fast.lastID, fast.nextDraw, stepped.lastID, stepped.nextDraw)
			}
			if !reflect.DeepEqual(fast.drawn, stepped.drawn) {
				t.Fatalf("outside ID draws differ:\nfast    %v\nstepped %v", fast.drawn, stepped.drawn)
			}
			if !reflect.DeepEqual(fast.got, stepped.got) {
				t.Fatalf("released requests differ:\nfast    %v\nstepped %v", fast.got, stepped.got)
			}
			if fast.stats != stepped.stats {
				t.Fatalf("stats: fast %+v, stepped %+v", fast.stats, stepped.stats)
			}
			for i := range stepped.snapshots {
				if !bytes.Equal(fast.snapshots[i], stepped.snapshots[i]) {
					t.Fatalf("shaper snapshots differ after segment %d", i)
				}
			}
			if stepped.stats.ReleasedFake == 0 || stepped.stats.Replenishments == 0 {
				t.Fatalf("run too quiet to cover fakes and replenishment: %+v", stepped.stats)
			}
			if tc.feed != nil && stepped.stats.ReleasedReal == 0 {
				t.Fatal("no real request was released")
			}
		})
	}
}

// TestAdmittedAgreesWithVerdicts checks admitted's horizon stepping
// against the verdicts the shaper ticks on, cycle by cycle: across
// random credit states, for both policies, with and without within-bin
// jitter, it must count exactly the cycles of a span that releaseBin (or
// fakeBin) admits, and name the last of them.
func TestAdmittedAgreesWithVerdicts(t *testing.T) {
	rng := sim.NewRNG(11)
	for trial := 0; trial < 200; trial++ {
		credits := make([]int, 10)
		for i := range credits {
			if rng.Bool(0.5) {
				credits[i] = rng.Intn(3)
			}
		}
		credits[rng.Intn(len(credits))]++
		cfg := cfgWith(credits, sim.Cycle(64+rng.Intn(512)), true)
		if rng.Bool(0.5) {
			cfg.Policy = PolicyAtMost
		}
		cfg.RandomizeWithinBin = rng.Bool(0.5)
		cfg.MaxUnusedWindows = 1 + rng.Intn(3)
		b, err := newBinCore(cfg, sim.NewRNG(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		for now := sim.Cycle(1); now < 3000; now += sim.Cycle(1 + rng.Intn(40)) {
			b.maybeReplenish(now)
			for _, fake := range []bool{false, true} {
				from := now + sim.Cycle(rng.Intn(50))
				to := from + sim.Cycle(rng.Intn(700))
				var want uint64
				var wantLast sim.Cycle
				for c := from; c <= to; c++ {
					var ok bool
					if fake {
						_, ok = b.fakeBin(c)
					} else {
						_, ok = b.releaseBin(c)
					}
					if ok {
						want++
						wantLast = c
					}
				}
				if n, last := b.admitted(from, to, fake); n != want || (n > 0 && last != wantLast) {
					t.Fatalf("trial %d (%+v, fake=%v): [%d, %d] admitted %d ending %d, verdicts %d ending %d",
						trial, cfg, fake, from, to, n, last, want, wantLast)
				}
			}
			// Release now and then, so the gap restarts and the pools drain.
			if rng.Bool(0.5) {
				if bin, ok := b.releaseBin(now); ok {
					b.commitReal(now, bin)
				}
			} else if bin, ok := b.fakeBin(now); ok {
				b.commitFake(now, bin)
			}
		}
	}
}
