package check

import (
	"fmt"

	"camouflage/internal/dram"
	"camouflage/internal/sim"
)

// DRAMChecker verifies the DDR3 command stream against a reference Timing,
// independently of whatever timing the channel itself is running — so a
// fault injector that perturbs the channel's timing parameters produces
// command schedules the checker flags. It implements dram.Observer (the
// channel reports every issue) and Checker (the monitor collects its
// verdicts).
//
// Checked constraints: no issue to a busy bank; activate-to-column tRCD;
// rank-level activate-to-activate tRRD; and the four-activate tFAW window.
type DRAMChecker struct {
	name string
	ref  dram.Timing
	ring *Ring

	ranks []dramRankHistory

	pending []error

	issues   uint64
	busyBank uint64
}

type dramRankHistory struct {
	activates [4]sim.Cycle
	idx       int
	count     int
	last      sim.Cycle
}

// NewDRAMChecker returns a checker validating against ref for a channel
// with ranks ranks. ring may be nil.
func NewDRAMChecker(name string, ref dram.Timing, ranks int, ring *Ring) *DRAMChecker {
	return &DRAMChecker{name: name, ref: ref, ring: ring, ranks: make([]dramRankHistory, ranks)}
}

// Name implements Checker.
func (d *DRAMChecker) Name() string { return d.name }

// Issues returns the number of observed command issues.
func (d *DRAMChecker) Issues() uint64 { return d.issues }

// ObserveIssue implements dram.Observer.
func (d *DRAMChecker) ObserveIssue(ev dram.IssueEvent) {
	d.issues++
	if d.ring != nil {
		d.ring.RecordIssue(ev)
	}
	if ev.BusyBank {
		d.busyBank++
		d.fail(ev.Now, fmt.Errorf("issue to busy bank %d.%d at cycle %d", ev.Rank, ev.Bank, ev.Now))
	}
	if !ev.Activated {
		return
	}
	if ev.ColAt < ev.ActAt+d.ref.TRCD {
		d.fail(ev.Now, fmt.Errorf("tRCD violation on bank %d.%d: column command at cycle %d, activate at %d, need >= %d",
			ev.Rank, ev.Bank, ev.ColAt, ev.ActAt, ev.ActAt+d.ref.TRCD))
	}
	if ev.Rank >= len(d.ranks) {
		return
	}
	rk := &d.ranks[ev.Rank]
	if rk.count > 0 && ev.ActAt < rk.last+d.ref.TRRD {
		d.fail(ev.Now, fmt.Errorf("tRRD violation on rank %d: activate at cycle %d, previous at %d, need >= %d",
			ev.Rank, ev.ActAt, rk.last, rk.last+d.ref.TRRD))
	}
	if d.ref.TFAW > 0 && rk.count >= len(rk.activates) {
		oldest := rk.activates[rk.idx]
		if ev.ActAt < oldest+d.ref.TFAW {
			d.fail(ev.Now, fmt.Errorf("tFAW violation on rank %d: fifth activate at cycle %d inside window opened at %d, need >= %d",
				ev.Rank, ev.ActAt, oldest, oldest+d.ref.TFAW))
		}
	}
	rk.activates[rk.idx] = ev.ActAt
	rk.idx = (rk.idx + 1) % len(rk.activates)
	rk.count++
	rk.last = ev.ActAt
}

// Check implements Checker: surface one pending protocol violation.
func (d *DRAMChecker) Check(now sim.Cycle) error {
	if len(d.pending) == 0 {
		return nil
	}
	err := d.pending[0]
	d.pending = d.pending[1:]
	return err
}

func (d *DRAMChecker) fail(now sim.Cycle, err error) {
	if d.ring != nil {
		d.ring.Record(now, "dram protocol: %v", err)
	}
	d.pending = append(d.pending, err)
}
