package harness

import (
	"context"

	"camouflage/internal/sim"
	"camouflage/internal/stats"
)

// HeadlineResult aggregates the paper's headline throughput claims:
// Camouflage improves program throughput by ~1.12x over CS, ~1.5x over TP
// and ~1.32x over FS.
type HeadlineResult struct {
	VsCS float64
	VsTP float64
	VsFS float64
}

// HeadlineSpeedups computes the abstract's comparison numbers: the
// Figure 12 geometric-mean speedup over CS, and the Figure 13
// average-slowdown ratios over TP and FS (aggregated over both victim
// sets, without GA refinement). It runs those experiments and combines
// them with CombineHeadline.
func HeadlineSpeedups(ctx context.Context, cycles sim.Cycle, seed uint64) (*HeadlineResult, error) {
	fig12, err := ReqCSpeedup(ctx, cycles, seed)
	if err != nil {
		return nil, err
	}
	var fig13s []*BDCComparisonResult
	for _, victim := range []string{"astar", "mcf"} {
		fig13, err := BDCComparison(ctx, victim, false, cycles, seed)
		if err != nil {
			return nil, err
		}
		fig13s = append(fig13s, fig13)
	}
	return CombineHeadline(fig12, fig13s...), nil
}

// CombineHeadline derives the headline numbers from already-measured
// Figure 12 and Figure 13 results: the Figure 12 geometric mean, and the
// geometric means of every Figure 13 row's TP/BDC and FS/BDC slowdown
// ratios, taken over fig13s in order. It only reads its arguments, so
// results shared between campaign jobs can be passed in.
func CombineHeadline(fig12 *ReqCSpeedupResult, fig13s ...*BDCComparisonResult) *HeadlineResult {
	var tpRatios, fsRatios []float64
	for _, fig13 := range fig13s {
		for _, row := range fig13.Rows {
			if row.BDC > 0 {
				tpRatios = append(tpRatios, row.TP/row.BDC)
				fsRatios = append(fsRatios, row.FS/row.BDC)
			}
		}
	}
	return &HeadlineResult{
		VsCS: fig12.GeoMean,
		VsTP: stats.GeoMean(tpRatios),
		VsFS: stats.GeoMean(fsRatios),
	}
}

// Table renders the result against the paper's claims.
func (r *HeadlineResult) Table() *Table {
	t := &Table{
		Title:   "Headline — Camouflage throughput improvement over prior schemes",
		Columns: []string{"baseline", "paper", "measured"},
	}
	t.AddRow("CS (constant rate)", "1.12x", f2(r.VsCS)+"x")
	t.AddRow("TP (temporal partitioning)", "1.50x", f2(r.VsTP)+"x")
	t.AddRow("FS (fixed service + bank partitioning)", "1.32x", f2(r.VsFS)+"x")
	return t
}
