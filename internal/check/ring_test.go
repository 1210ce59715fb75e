package check

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"camouflage/internal/ckpt"
	"camouflage/internal/dram"

	"camouflage/internal/sim"
)

func TestRingKeepsLastKOldestFirst(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(sim.Cycle(i), "ev%d", i)
	}
	if r.Recorded() != 10 {
		t.Fatalf("recorded %d, want 10", r.Recorded())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	for i, ev := range evs {
		want := fmt.Sprintf("ev%d", 6+i)
		if ev.Msg != want || ev.Cycle != sim.Cycle(6+i) {
			t.Fatalf("event %d = %+v, want %s", i, ev, want)
		}
	}
}

func TestRingExactlyFull(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 3; i++ {
		r.Record(sim.Cycle(i), "ev%d", i)
	}
	evs := r.Events()
	if len(evs) != 3 || evs[0].Msg != "ev0" || evs[2].Msg != "ev2" {
		t.Fatalf("events %+v", evs)
	}
	// One more wraps: ev0 evicted, order still oldest-first.
	r.Record(3, "ev3")
	evs = r.Events()
	if len(evs) != 3 || evs[0].Msg != "ev1" || evs[2].Msg != "ev3" {
		t.Fatalf("post-wrap events %+v", evs)
	}
}

func TestRingUnderfilled(t *testing.T) {
	r := NewRing(8)
	r.Record(1, "only")
	evs := r.Events()
	if len(evs) != 1 || evs[0].Msg != "only" {
		t.Fatalf("events %+v", evs)
	}
}

// Two recorders interleaving into a shared ring — the pattern checkers
// and instrumented components produce in a real run. The ring must keep
// a consistent, oldest-first global order across many wrap points
// regardless of how the writers alternate.
func TestRingInterleavedWritersAcrossWraps(t *testing.T) {
	const size = 5
	schedules := [][]int{
		{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0},       // strict alternation
		{0, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1}, // bursts
		{1, 1, 1, 1, 1, 1, 0},                         // one dominates
	}
	for si, sched := range schedules {
		r := NewRing(size)
		var global []string
		for step, writer := range sched {
			msg := fmt.Sprintf("w%d#%d", writer, step)
			r.Record(sim.Cycle(step), "%s", msg)
			global = append(global, msg)
		}
		want := global
		if len(want) > size {
			want = want[len(want)-size:]
		}
		evs := r.Events()
		if len(evs) != len(want) {
			t.Fatalf("schedule %d: retained %d, want %d", si, len(evs), len(want))
		}
		for i := range want {
			if evs[i].Msg != want[i] {
				t.Fatalf("schedule %d: event %d = %q, want %q", si, i, evs[i].Msg, want[i])
			}
		}
		if r.Recorded() != uint64(len(global)) {
			t.Fatalf("schedule %d: recorded %d, want %d", si, r.Recorded(), len(global))
		}
	}
}

func TestRingDumpMentionsEvictions(t *testing.T) {
	r := NewRing(2)
	for i := 0; i < 5; i++ {
		r.Record(sim.Cycle(i), "ev%d", i)
	}
	d := r.Dump()
	if !strings.Contains(d, "last 2 of 5") {
		t.Fatalf("dump header missing eviction count:\n%s", d)
	}
	if !strings.Contains(d, "ev3") || !strings.Contains(d, "ev4") || strings.Contains(d, "ev2") {
		t.Fatalf("dump content wrong:\n%s", d)
	}
}

func TestRingDefaultSize(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < DefaultRingSize+10; i++ {
		r.Record(sim.Cycle(i), "ev%d", i)
	}
	if got := len(r.Events()); got != DefaultRingSize {
		t.Fatalf("retained %d, want %d", got, DefaultRingSize)
	}
}

// TestRingIssueEventsRenderAsFormatted pins the structured DRAM issue
// record to the message formatted eagerly from the same fields: Events,
// Dump and checkpoint bytes read the same whichever way an issue was
// recorded, including across a wrap.
func TestRingIssueEventsRenderAsFormatted(t *testing.T) {
	issues := []dram.IssueEvent{
		{Now: 10, Rank: 1, Bank: 3, Row: 77, Activated: true, ActAt: 10, ColAt: 19, DataAt: 28},
		{Now: 12, Rank: 0, Bank: 5, Row: 4096, Write: true, ColAt: 12, DataAt: 21},
		{Now: 15, Rank: 1, Bank: 3, Row: 78, Activated: true, Conflict: true, BusyBank: true, ActAt: 40, PrevActAt: 10, ColAt: 49, DataAt: 58},
	}
	structured, formatted := NewRing(2), NewRing(2)
	for i, ev := range issues {
		structured.RecordIssue(ev)
		formatted.Record(ev.Now, "dram issue rank=%d bank=%d row=%d write=%v act=%v actAt=%d colAt=%d dataAt=%d busy=%v",
			ev.Rank, ev.Bank, ev.Row, ev.Write, ev.Activated, ev.ActAt, ev.ColAt, ev.DataAt, ev.BusyBank)
		structured.Record(ev.Now, "note %d", i)
		formatted.Record(ev.Now, "note %d", i)
	}
	if s, f := fmt.Sprint(structured.Events()), fmt.Sprint(formatted.Events()); s != f {
		t.Fatalf("events differ:\nstructured %s\nformatted  %s", s, f)
	}
	if s, f := structured.Dump(), formatted.Dump(); s != f {
		t.Fatalf("dumps differ:\n%s\n%s", s, f)
	}
	var se, fe ckpt.Encoder
	structured.Snapshot(&se)
	formatted.Snapshot(&fe)
	if !bytes.Equal(se.Bytes(), fe.Bytes()) {
		t.Fatal("checkpoint bytes differ")
	}
}
