// Package attack implements the adversaries of the paper's threat model
// (§II-A), used to evaluate Camouflage empirically:
//
//   - BusMonitor: the pin/bus-monitoring adversary — a data-center
//     administrator probing the path between processor and memory, seeing
//     when each transaction crosses (but not, per the threat model,
//     addresses or data, which ORAM/encryption protect);
//   - CovertDecoder: the receiver for the Algorithm 1 covert channel,
//     recovering key bits from traffic burstiness;
//   - ResponseProbe: the co-scheduled malicious VM measuring its own
//     response latencies to infer a victim's memory intensity.
package attack

import (
	"sort"

	"camouflage/internal/mem"
	"camouflage/internal/sim"
)

// BusMonitor records the cycle at which every observed transaction crosses
// a shared channel. Attach it as a noc.Link tap.
type BusMonitor struct {
	// FilterCore restricts observation to one core's traffic, or -1 for
	// all traffic on the channel.
	FilterCore int
	// times holds observation timestamps in order.
	times []sim.Cycle
}

// NewBusMonitor returns a monitor observing core's traffic (-1 for all).
func NewBusMonitor(core int) *BusMonitor {
	return &BusMonitor{FilterCore: core}
}

// Observe implements the noc.Tap signature.
func (m *BusMonitor) Observe(now sim.Cycle, req *mem.Request) {
	if m.FilterCore >= 0 && req.Core != m.FilterCore {
		return
	}
	m.times = append(m.times, now)
}

// Times returns the raw observation timestamps.
func (m *BusMonitor) Times() []sim.Cycle { return m.times }

// Count returns the number of observed transactions.
func (m *BusMonitor) Count() int { return len(m.times) }

// WindowCounts buckets the observations into fixed windows of the given
// width starting at cycle start, producing the traffic-over-time series of
// Figures 14 and 15.
func (m *BusMonitor) WindowCounts(start sim.Cycle, width sim.Cycle, n int) []int {
	counts := make([]int, n)
	for _, t := range m.times {
		if t < start {
			continue
		}
		w := int((t - start) / width)
		if w >= n {
			break
		}
		counts[w]++
	}
	return counts
}

// InterArrivals returns the observation inter-arrival sequence.
func (m *BusMonitor) InterArrivals() []sim.Cycle {
	if len(m.times) < 2 {
		return nil
	}
	out := make([]sim.Cycle, len(m.times)-1)
	for i := 1; i < len(m.times); i++ {
		out[i-1] = m.times[i] - m.times[i-1]
	}
	return out
}

// DecodeResult is the outcome of a covert-channel decode attempt.
type DecodeResult struct {
	// Bits is the recovered bit vector.
	Bits []int
	// Errors counts positions differing from the transmitted key.
	Errors int
	// BER is Errors / len(Bits).
	BER float64
	// Threshold is the per-window request count used to call a 1.
	Threshold float64
}

// DecodeCovertChannel recovers key bits from windowed traffic counts: each
// pulse-wide window with activity above the threshold decodes as 1. The
// threshold is chosen as the midpoint between the mean of the low and high
// halves of the observed counts (an adversary with knowledge of the
// encoding does at least this well). sent is the ground-truth bit vector.
func DecodeCovertChannel(counts []int, sent []int) DecodeResult {
	n := len(sent)
	if len(counts) < n {
		n = len(counts)
	}
	if n == 0 {
		return DecodeResult{}
	}
	lo, hi := counts[0], counts[0]
	for _, c := range counts[:n] {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	threshold := float64(lo+hi) / 2
	res := DecodeResult{Bits: make([]int, n), Threshold: threshold}
	for i := 0; i < n; i++ {
		if float64(counts[i]) > threshold {
			res.Bits[i] = 1
		}
		if res.Bits[i] != sent[i] {
			res.Errors++
		}
	}
	res.BER = float64(res.Errors) / float64(n)
	return res
}

// PhaseDetection classifies each observation window as "victim busy" (1)
// or "victim quiet" (0) by thresholding the adversary's mean observed
// latency per window at the midpoint of the observed range, and scores
// the classification against the ground-truth phase function. This is the
// §II-A side channel: inferring a co-scheduled VM's program phases from
// one's own memory service time. An accuracy near 0.5 means the channel
// carries nothing.
type PhaseDetection struct {
	// Windows is the number of classified windows.
	Windows int
	// Correct counts windows whose inferred phase matched the truth.
	Correct int
	// Accuracy is Correct / Windows.
	Accuracy float64
	// MeanBusy and MeanQuiet are the adversary's mean observed latencies
	// in truly-busy and truly-quiet windows (their gap is the signal).
	MeanBusy  float64
	MeanQuiet float64
}

// DetectPhases runs the classification. reqTimes and latencies are the
// adversary's paired request timestamps and observed latencies (from an
// ObservableProbe); window is the classification granularity; truth maps
// a cycle to the victim's ground-truth phase (0 or 1, 1 = quiet).
func DetectPhases(reqTimes []sim.Cycle, latencies []sim.Cycle, window sim.Cycle, truth func(sim.Cycle) int) PhaseDetection {
	n := len(reqTimes)
	if len(latencies) < n {
		n = len(latencies)
	}
	if n == 0 || window == 0 {
		return PhaseDetection{}
	}
	type agg struct {
		sum   float64
		count int
	}
	byWindow := map[uint64]*agg{}
	var order []uint64
	for k := 0; k < n; k++ {
		w := uint64(reqTimes[k] / window)
		a := byWindow[w]
		if a == nil {
			a = &agg{}
			byWindow[w] = a
			order = append(order, w)
		}
		a.sum += float64(latencies[k])
		a.count++
	}
	// Threshold at the median of per-window means — robust to the
	// heavy-tailed latencies a handful of slow probes produce.
	means := make([]float64, 0, len(byWindow))
	for _, a := range byWindow {
		means = append(means, a.sum/float64(a.count))
	}
	sort.Float64s(means)
	threshold := means[len(means)/2]
	if n := len(means); n%2 == 0 {
		threshold = (means[n/2-1] + means[n/2]) / 2
	}

	var det PhaseDetection
	var busySum, quietSum float64
	var busyN, quietN int
	for _, w := range order {
		a := byWindow[w]
		m := a.sum / float64(a.count)
		mid := sim.Cycle(w)*window + window/2
		actual := truth(mid)
		inferred := 0 // busy victims slow the adversary down
		if m < threshold {
			inferred = 1
		}
		det.Windows++
		if inferred == actual {
			det.Correct++
		}
		if actual == 0 {
			busySum += m
			busyN++
		} else {
			quietSum += m
			quietN++
		}
	}
	if det.Windows > 0 {
		det.Accuracy = float64(det.Correct) / float64(det.Windows)
	}
	if busyN > 0 {
		det.MeanBusy = busySum / float64(busyN)
	}
	if quietN > 0 {
		det.MeanQuiet = quietSum / float64(quietN)
	}
	return det
}

// ResponseProbe records the adversary's own memory response latencies in
// arrival order. Install its OnResponse hook on the adversary core.
type ResponseProbe struct {
	latencies []sim.Cycle
}

// NewResponseProbe returns an empty probe.
func NewResponseProbe() *ResponseProbe { return &ResponseProbe{} }

// OnResponse matches the cpu.Core hook signature.
func (p *ResponseProbe) OnResponse(now sim.Cycle, resp *mem.Request) {
	p.latencies = append(p.latencies, resp.Latency())
}

// Latencies returns the recorded per-request latencies.
func (p *ResponseProbe) Latencies() []sim.Cycle { return p.latencies }

// ObservableProbe models what the response-inspecting adversary can
// actually measure: it pairs its k-th issued request with the k-th
// response it receives. Fake responses are indistinguishable from real
// ones on the return path, so they enter the pairing — which is precisely
// how Response Camouflage confounds the measurement.
type ObservableProbe struct {
	Core      int
	reqTimes  []sim.Cycle
	respTimes []sim.Cycle
}

// NewObservableProbe returns a probe for core's traffic.
func NewObservableProbe(core int) *ObservableProbe {
	return &ObservableProbe{Core: core}
}

// ObserveRequest is a request-channel tap recording the adversary's own
// (real) requests entering the shared channel.
func (p *ObservableProbe) ObserveRequest(now sim.Cycle, req *mem.Request) {
	if req.Core != p.Core || req.Fake {
		return
	}
	p.reqTimes = append(p.reqTimes, now)
}

// ObserveResponse is a response-channel tap recording every response the
// adversary receives — fake or real, it cannot tell.
func (p *ObservableProbe) ObserveResponse(now sim.Cycle, req *mem.Request) {
	if req.Core != p.Core {
		return
	}
	p.respTimes = append(p.respTimes, now)
}

// Latencies returns the request-to-response delays the adversary
// computes: each request is matched with the first not-yet-consumed
// response arriving after it — the software-timer measurement a malicious
// VM can actually make. When Response Camouflage keeps a steady response
// cadence, this delay reflects the distance to the next slot rather than
// the true service time, which is precisely the confounding the defense
// relies on.
func (p *ObservableProbe) Latencies() []sim.Cycle {
	_, lats := p.PairedLatencies()
	return lats
}

// PairedLatencies returns the matched (request time, observed delay)
// pairs, aligned index-to-index — the input windowed analyses such as
// DetectPhases need.
func (p *ObservableProbe) PairedLatencies() ([]sim.Cycle, []sim.Cycle) {
	times := make([]sim.Cycle, 0, len(p.reqTimes))
	lats := make([]sim.Cycle, 0, len(p.reqTimes))
	j := 0
	for _, rt := range p.reqTimes {
		for j < len(p.respTimes) && p.respTimes[j] <= rt {
			j++
		}
		if j >= len(p.respTimes) {
			break
		}
		times = append(times, rt)
		lats = append(lats, p.respTimes[j]-rt)
		j++
	}
	return times, lats
}

// AsResponseProbe converts the observable measurements into a
// ResponseProbe for use with AccumulatedDifference.
func (p *ObservableProbe) AsResponseProbe() *ResponseProbe {
	return &ResponseProbe{latencies: p.Latencies()}
}

// AccumulatedDifference returns the running sum of per-request latency
// differences between two probes (request k in one run vs request k in the
// other) — the paper's Figure 9 metric. A co-runner-dependent memory
// system shows a growing curve; Response Camouflage flattens it.
func AccumulatedDifference(a, b *ResponseProbe) []int64 {
	n := len(a.latencies)
	if len(b.latencies) < n {
		n = len(b.latencies)
	}
	out := make([]int64, n)
	var acc int64
	for k := 0; k < n; k++ {
		acc += int64(b.latencies[k]) - int64(a.latencies[k])
		out[k] = acc
	}
	return out
}
