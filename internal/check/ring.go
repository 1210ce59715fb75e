// Package check implements runtime invariant checking for the Camouflage
// simulator: pluggable checkers that run on the simulation kernel and stop
// the run with a diagnostic dump the moment an internal invariant breaks.
//
// The checkers guard the properties the reproduction's security claims rest
// on. Credit conservation in the shapers means no traffic is released
// outside the configured distribution; end-to-end flow conservation means
// every request entering the NoC retires exactly once; the DRAM protocol
// checker verifies tRCD/tRRD/tFAW-class constraints against the reference
// timing; the watchdog detects deadlock and livelock. Each failure is
// reported as a Violation carrying a dump of the last K simulation events
// from a shared diagnostic ring buffer, so a checker firing deep into a
// billion-cycle run still leaves a usable trail.
package check

import (
	"fmt"
	"strings"

	"camouflage/internal/dram"
	"camouflage/internal/sim"
)

// Event is one diagnostic ring-buffer entry.
type Event struct {
	Cycle sim.Cycle
	Msg   string
}

// entry is one retained ring slot. Most recorders hand the ring a
// formatted message, but the DRAM protocol checker records every command
// issue, so its events stay structured and are rendered only when the
// ring is read: recording one then neither formats nor allocates.
type entry struct {
	cycle sim.Cycle
	msg   string
	issue dram.IssueEvent // valid when isIssue
	// isIssue marks a structured DRAM issue event.
	isIssue bool
}

// text renders the entry's message.
func (e *entry) text() string {
	if !e.isIssue {
		return e.msg
	}
	ev := &e.issue
	return fmt.Sprintf("dram issue rank=%d bank=%d row=%d write=%v act=%v actAt=%d colAt=%d dataAt=%d busy=%v",
		ev.Rank, ev.Bank, ev.Row, ev.Write, ev.Activated, ev.ActAt, ev.ColAt, ev.DataAt, ev.BusyBank)
}

// Ring is a fixed-capacity buffer of the most recent diagnostic events.
// Checkers and instrumented components record into it on interesting
// transitions; when a violation fires, the ring's contents become the
// dump attached to the Violation.
type Ring struct {
	buf   []entry
	next  int
	count uint64
}

// DefaultRingSize is the diagnostic window attached to violations.
const DefaultRingSize = 64

// NewRing returns a ring keeping the last size events (size <= 0 selects
// DefaultRingSize).
func NewRing(size int) *Ring {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Ring{buf: make([]entry, 0, size)}
}

// Record appends a formatted event, evicting the oldest when full.
func (r *Ring) Record(now sim.Cycle, format string, args ...any) {
	r.put(entry{cycle: now, msg: fmt.Sprintf(format, args...)})
}

// RecordIssue appends a DRAM command issue, kept structured until the
// ring is read.
func (r *Ring) RecordIssue(ev dram.IssueEvent) {
	r.put(entry{cycle: ev.Now, issue: ev, isIssue: true})
}

func (r *Ring) put(e entry) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.count++
}

// Recorded returns the total number of events ever recorded.
func (r *Ring) Recorded() uint64 { return r.count }

// Events returns the retained events oldest-first.
func (r *Ring) Events() []Event {
	start := 0
	if len(r.buf) == cap(r.buf) {
		start = r.next
	}
	out := make([]Event, 0, len(r.buf))
	for i := range r.buf {
		e := &r.buf[(start+i)%len(r.buf)]
		out = append(out, Event{Cycle: e.cycle, Msg: e.text()})
	}
	return out
}

// Dump renders the retained events as a human-readable trail, oldest
// first, noting how many earlier events were evicted.
func (r *Ring) Dump() string {
	evs := r.Events()
	var b strings.Builder
	fmt.Fprintf(&b, "last %d of %d diagnostic events:\n", len(evs), r.count)
	for _, ev := range evs {
		fmt.Fprintf(&b, "  [cycle %10d] %s\n", ev.Cycle, ev.Msg)
	}
	return b.String()
}
