package sim

import (
	"testing"

	"camouflage/internal/ckpt"
)

// napper is a Sleeper that wants to act every period cycles. It logs its
// ticks and skip spans, and poke mutates it from outside the way a
// TrySend would: wake first, then change state.
type napper struct {
	name   string
	period Cycle
	slot   *Slot
	log    *[]string
	ticks  []Cycle
	skips  [][2]Cycle
	// skipped counts the cycles covered by Skip; pokeSeen records, at
	// each poke, how far the component had been accounted when the
	// mutation landed.
	skipped  Cycle
	pokeSeen []Cycle
}

func (n *napper) BindSlot(s *Slot) { n.slot = s }

func (n *napper) NextWake(now Cycle) Cycle { return now + n.period - now%n.period }

func (n *napper) Skip(from, to Cycle) {
	n.skips = append(n.skips, [2]Cycle{from, to})
	n.skipped += to - from + 1
}

func (n *napper) Tick(now Cycle) {
	n.ticks = append(n.ticks, now)
	if n.log != nil {
		*n.log = append(*n.log, n.name)
	}
	n.slot.Offer()
}

// accounted is the number of cycles the napper has seen, ticked or
// skipped.
func (n *napper) accounted() Cycle { return Cycle(len(n.ticks)) + n.skipped }

func (n *napper) poke() {
	n.slot.Wake()
	n.pokeSeen = append(n.pokeSeen, n.accounted())
}

// busy is a Sleeper that never offers to sleep; at cycle at it pokes
// target.
type busy struct {
	at     Cycle
	target *napper
	log    *[]string
}

func (b *busy) BindSlot(*Slot)           {}
func (b *busy) NextWake(now Cycle) Cycle { return now + 1 }
func (b *busy) Tick(now Cycle) {
	if b.log != nil {
		*b.log = append(*b.log, "busy")
	}
	if now == b.at {
		b.target.poke()
	}
}

func TestSleeperTicksOnlyAtItsWakes(t *testing.T) {
	k := NewKernel(1)
	n := &napper{period: 10}
	k.Register(n)
	k.Register(&busy{})
	k.Run(100)
	want := []Cycle{1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if len(n.ticks) != len(want) {
		t.Fatalf("ticked at %v, want %v", n.ticks, want)
	}
	for i := range want {
		if n.ticks[i] != want[i] {
			t.Fatalf("ticked at %v, want %v", n.ticks, want)
		}
	}
	if got := n.accounted(); got != 100 {
		t.Fatalf("ticks+skips cover %d cycles, want 100", got)
	}
	if k.SkippedCycles() != 0 {
		t.Fatalf("clock jumped %d cycles with a component always awake", k.SkippedCycles())
	}
}

// TestWakeSettlesBeforeTheMutation pins the wake contract for both
// registration orders: the sleeper is bulk-accounted exactly through the
// last cycle whose tick slot has passed before the mutation lands, then
// ticks from its next slot — the same cycle when it comes after the
// waker, the next one when it came before.
func TestWakeSettlesBeforeTheMutation(t *testing.T) {
	for _, sleeperFirst := range []bool{true, false} {
		k := NewKernel(1)
		n := &napper{period: 1000}
		b := &busy{at: 50, target: n}
		if sleeperFirst {
			k.Register(n)
			k.Register(b)
		} else {
			k.Register(b)
			k.Register(n)
		}
		k.Run(60)
		seen, next := Cycle(50), Cycle(51)
		if !sleeperFirst {
			seen, next = 49, 50
		}
		if len(n.pokeSeen) != 1 || n.pokeSeen[0] != seen {
			t.Fatalf("sleeperFirst=%v: accounted through %v at the poke, want %d", sleeperFirst, n.pokeSeen, seen)
		}
		if len(n.ticks) != 2 || n.ticks[0] != 1 || n.ticks[1] != next {
			t.Fatalf("sleeperFirst=%v: ticked at %v, want [1 %d]", sleeperFirst, n.ticks, next)
		}
		if got := n.accounted(); got != 60 {
			t.Fatalf("sleeperFirst=%v: ticks+skips cover %d cycles, want 60", sleeperFirst, got)
		}
	}
}

// TestWokenSleeperKeepsRegistrationOrder: a component woken by an
// earlier one in the same cycle ticks in its own slot of that cycle,
// after its waker and before anything registered behind it.
func TestWokenSleeperKeepsRegistrationOrder(t *testing.T) {
	var log []string
	k := NewKernel(1)
	n := &napper{name: "napper", period: 1000, log: &log}
	k.Register(&busy{at: 5, target: n, log: &log})
	k.Register(n)
	k.Register(&napper{name: "tail", period: 1, log: &log})
	k.Run(5)
	got := log[len(log)-3:]
	want := []string{"busy", "napper", "tail"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cycle 5 tick order %v, want %v", got, want)
		}
	}
}

func TestRunAndAdvanceReturnSettled(t *testing.T) {
	k := NewKernel(1)
	n := &napper{period: 1000}
	k.Register(n)
	k.Register(&busy{})
	k.Run(37)
	if got := n.accounted(); got != 37 {
		t.Fatalf("after Run: accounted %d cycles, want 37", got)
	}
	for k.Now() < 42 {
		k.Advance(42 - k.Now())
		if got := n.accounted(); got != k.Now() {
			t.Fatalf("after Advance to %d: accounted %d cycles", k.Now(), got)
		}
	}
	k.RunUntil(func() bool {
		if got := n.accounted(); got != k.Now() {
			t.Fatalf("RunUntil predicate at cycle %d saw %d cycles accounted", k.Now(), got)
		}
		return k.Now() >= 50
	}, 100)
}

// TestGlobalJumpWhenEverySleeperSleeps: with every component asleep the
// clock jumps, and the sleepers settle the jumped span lazily.
func TestGlobalJumpWhenEverySleeperSleeps(t *testing.T) {
	k := NewKernel(1)
	a, b := &napper{period: 100}, &napper{period: 250}
	k.Register(a)
	k.Register(b)
	k.Run(1000)
	if k.SkippedCycles() == 0 || k.Jumps() == 0 {
		t.Fatalf("no jump taken (skipped %d, jumps %d)", k.SkippedCycles(), k.Jumps())
	}
	for _, n := range []*napper{a, b} {
		if got := n.accounted(); got != 1000 {
			t.Fatalf("period %d: accounted %d cycles, want 1000", n.period, got)
		}
		if last := n.ticks[len(n.ticks)-1]; last != 1000 {
			t.Fatalf("period %d: last tick at %d, want 1000", n.period, last)
		}
	}
}

// TestOfferIgnoredOutsideItsKernel: the stepped reference mode ticks a
// Sleeper every cycle, and a tick driven by anything but the slot's own
// kernel cannot put the component to sleep there.
func TestOfferIgnoredOutsideItsKernel(t *testing.T) {
	k := NewKernel(1)
	n := &napper{period: 10}
	k.Register(n)
	k.SetFastPath(false)
	k.Run(30)
	if len(n.ticks) != 30 || n.skipped != 0 {
		t.Fatalf("stepped mode: %d ticks, %d skipped, want 30 and 0", len(n.ticks), n.skipped)
	}

	home := NewKernel(1)
	m := &napper{period: 10}
	home.Register(m)
	other := NewKernel(1)
	other.Register(TickFunc(m.Tick))
	other.Run(30)
	m.slot.Wake()
	if m.slot.asleep || len(m.skips) != 0 {
		t.Fatalf("foreign ticks slept the slot (asleep %v, skips %v)", m.slot.asleep, m.skips)
	}
	var none *Slot
	none.Wake()
	none.Offer()
}

// TestRestoreStartsEveryComponentAwake: sleep state is not checkpoint
// state, so a restored kernel ticks every component on its first cycle,
// whatever it was sleeping on before.
func TestRestoreStartsEveryComponentAwake(t *testing.T) {
	build := func() (*Kernel, *napper) {
		k := NewKernel(3)
		n := &napper{period: 1000}
		k.Register(n)
		k.Register(&busy{})
		return k, n
	}
	k, _ := build()
	k.Run(500)
	var e ckpt.Encoder
	k.Snapshot(&e)

	k2, n2 := build()
	k2.Run(200) // n2 is asleep, due back at cycle 1000
	if err := k2.Restore(ckpt.NewDecoder(e.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	skips, ticks := len(n2.skips), len(n2.ticks)
	k2.Run(1)
	if len(n2.skips) != skips {
		t.Fatalf("restored sleeper skipped %v", n2.skips[skips:])
	}
	if len(n2.ticks) != ticks+1 || n2.ticks[ticks] != 501 {
		t.Fatalf("restored sleeper ticks %v, want a tick at 501", n2.ticks[ticks:])
	}
}

// settler is a Sleeper that never sleeps; at cycle at it settles target
// without waking it and records how far target was then accounted.
type settler struct {
	at     Cycle
	target *napper
	seen   Cycle
	asleep bool
}

func (s *settler) BindSlot(*Slot)           {}
func (s *settler) NextWake(now Cycle) Cycle { return now + 1 }
func (s *settler) Tick(now Cycle) {
	if now == s.at {
		s.target.slot.Settle()
		s.seen, s.asleep = s.target.accounted(), s.target.slot.Asleep()
	}
}

// TestSlotSettleAccountsWithoutWaking: Settle brings a sleeper up to
// the last cycle whose tick slot has passed, like a wake, but leaves it
// asleep until its own wake cycle.
func TestSlotSettleAccountsWithoutWaking(t *testing.T) {
	for _, sleeperFirst := range []bool{true, false} {
		k := NewKernel(1)
		n := &napper{period: 1000}
		s := &settler{at: 50, target: n}
		if sleeperFirst {
			k.Register(n)
			k.Register(s)
		} else {
			k.Register(s)
			k.Register(n)
		}
		k.Run(60)
		want := Cycle(50)
		if !sleeperFirst {
			want = 49
		}
		if s.seen != want || !s.asleep {
			t.Fatalf("sleeperFirst=%v: settled through %d (asleep %v), want %d and still asleep", sleeperFirst, s.seen, s.asleep, want)
		}
		if len(n.ticks) != 1 {
			t.Fatalf("sleeperFirst=%v: settling ticked the sleeper: %v", sleeperFirst, n.ticks)
		}
		if got := n.accounted(); got != 60 {
			t.Fatalf("sleeperFirst=%v: ticks+skips cover %d cycles, want 60", sleeperFirst, got)
		}
	}
}
