package check

import (
	"fmt"
	"strings"

	"camouflage/internal/dram"
	"camouflage/internal/sim"
)

// Checker is one runtime invariant. Check returns nil while the invariant
// holds; a non-nil error is a violation and stops the supervised run.
type Checker interface {
	Name() string
	Check(now sim.Cycle) error
}

// Violation is one detected invariant break, with the diagnostic ring
// contents captured at detection time.
type Violation struct {
	Cycle   sim.Cycle
	Checker string
	Err     error
	Dump    string
}

// Error implements the error interface.
func (v *Violation) Error() string {
	return fmt.Sprintf("invariant %q violated at cycle %d: %v", v.Checker, v.Cycle, v.Err)
}

// Unwrap exposes the underlying checker error.
func (v *Violation) Unwrap() error { return v.Err }

// Options configures the runtime monitor.
type Options struct {
	// Stride is how often (in cycles) checkers run; 0 selects
	// DefaultStride. Checking every cycle is affordable in tests but a
	// measurable tax on long experiments, so checks are strided.
	Stride sim.Cycle
	// WatchdogWindow is the no-progress window (in cycles) after which the
	// forward-progress watchdog declares a hang; 0 selects
	// DefaultWatchdogWindow.
	WatchdogWindow sim.Cycle
	// RingSize bounds the diagnostic event ring; 0 selects DefaultRingSize.
	RingSize int
	// FlowMaxAge is how long a request may stay in flight before the flow
	// checker declares it lost; 0 selects DefaultMaxAge.
	FlowMaxAge sim.Cycle
	// ReferenceTiming, when non-nil, is the DRAM timing the protocol
	// checker validates against instead of the system's configured timing.
	// A timing-perturbation fault experiment runs the channel on faulty
	// parameters while the checker holds the true reference.
	ReferenceTiming *dram.Timing
}

// Default monitor parameters.
const (
	DefaultStride         sim.Cycle = 1024
	DefaultWatchdogWindow sim.Cycle = 200_000
)

// Monitor runs registered checkers on a stride and collects violations.
// It is a sim.Tickable; the system assembler registers it last so checks
// observe the cycle's final state. On the first violation it stops the
// kernel, so a supervised run returns promptly with diagnostics instead
// of simulating on from a corrupt state.
type Monitor struct {
	kernel   *sim.Kernel
	ring     *Ring
	stride   sim.Cycle
	checkers []Checker
	// slot is the monitor's kernel slot; it sleeps between strides.
	slot *sim.Slot

	violations []*Violation
}

// NewMonitor returns a monitor attached to kernel. The caller must
// register it with the kernel (after every checked component).
func NewMonitor(kernel *sim.Kernel, opt Options) *Monitor {
	stride := opt.Stride
	if stride == 0 {
		stride = DefaultStride
	}
	return &Monitor{
		kernel: kernel,
		ring:   NewRing(opt.RingSize),
		stride: stride,
	}
}

// Ring returns the shared diagnostic ring. Instrumented components record
// interesting transitions into it so violation dumps have context.
func (m *Monitor) Ring() *Ring { return m.ring }

// Add registers a checker.
func (m *Monitor) Add(c Checker) { m.checkers = append(m.checkers, c) }

// Tick implements sim.Tickable: on stride boundaries, run every checker;
// then sleep until the next boundary.
func (m *Monitor) Tick(now sim.Cycle) {
	if now%m.stride == 0 {
		m.RunChecks(now)
	}
	m.slot.Offer()
}

// BindSlot implements sim.Sleeper. Nothing outside the monitor changes
// when it next acts, so nothing wakes it.
func (m *Monitor) BindSlot(s *sim.Slot) { m.slot = s }

// NextWake implements sim.NextWaker: the next stride boundary. Between
// boundaries Tick is a pure no-op, and the checkers themselves only
// mutate state (the watchdog's progress latch, checker counters) at
// boundary cycles, which fast-path and stepped runs both hit exactly.
func (m *Monitor) NextWake(now sim.Cycle) sim.Cycle {
	return now + m.stride - now%m.stride
}

// RunChecks runs every checker immediately (the supervised run path also
// calls it once at end-of-run so violations in the final partial stride
// are not missed). It reports whether all invariants held. Sleeping
// components are settled first, so checkers read the state a stepped
// run would hold.
func (m *Monitor) RunChecks(now sim.Cycle) bool {
	if m.kernel != nil {
		m.kernel.Settle()
	}
	ok := true
	for _, c := range m.checkers {
		if err := c.Check(now); err != nil {
			ok = false
			m.report(now, c.Name(), err)
		}
	}
	return ok
}

func (m *Monitor) report(now sim.Cycle, name string, err error) {
	m.ring.Record(now, "VIOLATION %s: %v", name, err)
	m.violations = append(m.violations, &Violation{
		Cycle:   now,
		Checker: name,
		Err:     err,
		Dump:    m.ring.Dump(),
	})
	if m.kernel != nil {
		m.kernel.Stop()
	}
}

// Violated cheaply reports whether any violation has been detected.
func (m *Monitor) Violated() bool { return len(m.violations) > 0 }

// Violations returns all detected violations in detection order.
func (m *Monitor) Violations() []*Violation {
	return append([]*Violation(nil), m.violations...)
}

// Err returns nil if no invariant has been violated, else an error
// summarising every violation with the first one's diagnostic dump. The
// returned error wraps the first *Violation, so callers can classify it
// with errors.As — invariant violations are deterministic properties of
// the simulated configuration, never worth retrying.
func (m *Monitor) Err() error {
	if len(m.violations) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d invariant violation(s):", len(m.violations))
	for _, v := range m.violations {
		fmt.Fprintf(&b, "\n  %s", v.Error())
	}
	b.WriteString("\n")
	b.WriteString(m.violations[0].Dump)
	return &monitorError{msg: b.String(), first: m.violations[0]}
}

// monitorError is the typed error returned by Err: the full multi-line
// summary as its message, the first violation as its unwrap target.
type monitorError struct {
	msg   string
	first *Violation
}

func (e *monitorError) Error() string { return e.msg }

// Unwrap exposes the first violation for errors.As / errors.Is.
func (e *monitorError) Unwrap() error { return e.first }
