package harness

import (
	"context"
	"math"
	"testing"
)

// testCycles keeps integration runs fast while leaving enough windows for
// stable measurements.
const testCycles = 250_000

func TestFig11AllAppsShapedToDesired(t *testing.T) {
	res, err := DistributionAccuracy(context.Background(), testCycles, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 11 {
		t.Fatalf("%d apps, want 11", len(res.Apps))
	}
	for _, app := range res.Apps {
		// All but the open-ended last bin must match the target almost
		// exactly; the last bin's 512-cycle releases can spill across
		// window boundaries.
		for i := 0; i < len(res.Desired)-1; i++ {
			dev := math.Abs(app.ShapedPerWindow[i] - float64(res.Desired[i]))
			if dev > 0.5 {
				t.Errorf("%s bin %d: shaped %.2f vs desired %d", app.Name, i, app.ShapedPerWindow[i], res.Desired[i])
			}
		}
		if app.MaxAbsDev > 1.0 {
			t.Errorf("%s max deviation %.2f", app.Name, app.MaxAbsDev)
		}
	}
	// Sanity: the intrinsic distributions genuinely differ across apps
	// (otherwise the experiment shows nothing).
	var distinct bool
	for i := 1; i < len(res.Apps); i++ {
		for b := range res.Apps[i].IntrinsicPerWindow {
			if math.Abs(res.Apps[i].IntrinsicPerWindow[b]-res.Apps[0].IntrinsicPerWindow[b]) > 1 {
				distinct = true
			}
		}
	}
	if !distinct {
		t.Error("intrinsic distributions suspiciously identical")
	}
}

func TestFig12CamouflageBeatsConstantShaper(t *testing.T) {
	// Longer run than the other integration tests: the GA-chosen configs
	// need enough windows to measure stably.
	res, err := ReqCSpeedup(context.Background(), 400_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.GeoMean < 1.04 {
		t.Fatalf("geomean speedup %.3f, want > 1.04 (paper: 1.12)", res.GeoMean)
	}
	byName := map[string]SpeedupRow{}
	for _, r := range res.Rows {
		byName[r.Name] = r
		if r.Speedup < 0.97 {
			t.Errorf("%s slowed down under ReqC: %.2f", r.Name, r.Speedup)
		}
	}
	// The paper's big winners are the bursty memory-intensive apps.
	if byName["mcf"].Speedup < 1.08 || byName["omnetpp"].Speedup < 1.05 {
		t.Errorf("memory hogs gained too little: mcf %.2f, omnetpp %.2f",
			byName["mcf"].Speedup, byName["omnetpp"].Speedup)
	}
	// Compute-bound apps are unaffected.
	if s := byName["sjeng"].Speedup; s < 0.97 || s > 1.1 {
		t.Errorf("sjeng speedup %.2f, want ~1.0", s)
	}
}

func TestMIOrderingMatchesPaper(t *testing.T) {
	res, err := MutualInformation(context.Background(), "astar", testCycles, 1)
	if err != nil {
		t.Fatal(err)
	}
	mi := map[string]float64{}
	for _, r := range res.Rows {
		mi[r.Scheme] = r.MI
	}
	if mi["NoShaping"] < 2 {
		t.Fatalf("unshaped self-information %.2f suspiciously low", mi["NoShaping"])
	}
	if mi["CS (fake)"] > 1e-3 {
		t.Errorf("CS with fake traffic leaks %.4f bits, want ~0", mi["CS (fake)"])
	}
	if mi["ReqC (fake)"] > 0.05*mi["NoShaping"] {
		t.Errorf("ReqC with fake leaks %.4f bits (>5%% of %.2f)", mi["ReqC (fake)"], mi["NoShaping"])
	}
	if mi["CS (no fake)"] >= mi["NoShaping"] || mi["ReqC (no fake)"] >= mi["NoShaping"] {
		t.Error("shaping did not reduce MI")
	}
	if mi["CS (fake)"] > mi["CS (no fake)"] {
		t.Error("fake traffic increased CS leakage")
	}
	if mi["ReqC (fake)"] > mi["ReqC (no fake)"] {
		t.Error("fake traffic increased ReqC leakage")
	}
}

func TestFig9RespCFlattensChannel(t *testing.T) {
	res, err := ReturnTimeDifference(context.Background(), "gcc", testCycles, 1)
	if err != nil {
		t.Fatal(err)
	}
	noshape := math.Abs(float64(res.FinalNoShaping))
	respc := math.Abs(float64(res.FinalRespC))
	if noshape < 10_000 {
		t.Fatalf("no-shaping channel too weak to measure: %v", res.FinalNoShaping)
	}
	if respc > 0.05*noshape {
		t.Fatalf("RespC accumulated %v vs FR-FCFS %v — not flat", res.FinalRespC, res.FinalNoShaping)
	}
	// The series itself must grow under FR-FCFS.
	n := len(res.NoShaping)
	if n < 2 || res.NoShaping[n-1] <= res.NoShaping[0] {
		t.Error("FR-FCFS difference series does not grow")
	}
}

func TestFig10RespCPerformanceShape(t *testing.T) {
	a, err := RespCPerformance(context.Background(), "astar", "mcf", testCycles, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Shaping the astar-run down to mcf's distribution costs the
	// adversary a little and the system almost nothing (paper: geomeans
	// 1.03 and 1.02).
	if a.GeoMeanAdv < 1.0 || a.GeoMeanAdv > 1.25 {
		t.Errorf("10(a) adversary geomean %.3f outside [1.00, 1.25]", a.GeoMeanAdv)
	}
	if a.GeoMeanThroughput > 1.12 {
		t.Errorf("10(a) throughput geomean %.3f too costly", a.GeoMeanThroughput)
	}
	b, err := RespCPerformance(context.Background(), "mcf", "astar", testCycles, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The mcf-side direction is near-neutral for the adversary (priority
	// elevation compensates the throttle; paper geomean 0.97) and costs
	// some throughput.
	if b.GeoMeanAdv > 1.15 {
		t.Errorf("10(b) adversary geomean %.3f", b.GeoMeanAdv)
	}
	if b.GeoMeanThroughput > 1.25 {
		t.Errorf("10(b) throughput geomean %.3f", b.GeoMeanThroughput)
	}
}

func TestFig13CamouflageWins(t *testing.T) {
	for _, victim := range []string{"astar", "mcf"} {
		res, err := BDCComparison(context.Background(), victim, false, testCycles, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 11 {
			t.Fatalf("%d rows", len(res.Rows))
		}
		if res.GeoMeanBDC >= res.GeoMeanFS {
			t.Errorf("victim %s: BDC %.2f not better than FS %.2f", victim, res.GeoMeanBDC, res.GeoMeanFS)
		}
		if res.GeoMeanBDC >= res.GeoMeanTP {
			t.Errorf("victim %s: BDC %.2f not better than TP %.2f", victim, res.GeoMeanBDC, res.GeoMeanTP)
		}
		// The paper's improvement factors: 1.5x vs TP, 1.32x vs FS;
		// accept a generous band around them.
		tpRatio := res.GeoMeanTP / res.GeoMeanBDC
		fsRatio := res.GeoMeanFS / res.GeoMeanBDC
		if tpRatio < 1.2 || tpRatio > 3.5 {
			t.Errorf("victim %s: TP/BDC ratio %.2f far from paper's 1.5", victim, tpRatio)
		}
		if fsRatio < 1.1 || fsRatio > 2.5 {
			t.Errorf("victim %s: FS/BDC ratio %.2f far from paper's 1.32", victim, fsRatio)
		}
	}
}

func TestCovertChannelMitigated(t *testing.T) {
	for _, key := range []uint64{0x2AAAAAAA, 0x01010101} {
		res, err := CovertChannel(context.Background(), key, 32, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.BeforeDecode.BER != 0 {
			t.Errorf("key %#x: unprotected BER %.2f, want perfect recovery", key, res.BeforeDecode.BER)
		}
		if res.AfterDecode.BER < 0.25 {
			t.Errorf("key %#x: Camouflage BER %.2f, channel survives", key, res.AfterDecode.BER)
		}
		// Shaped traffic must look near-uniform across pulses.
		lo, hi := res.AfterCounts[1], res.AfterCounts[1]
		for _, c := range res.AfterCounts[1:] {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if hi > 2*lo {
			t.Errorf("key %#x: shaped traffic still modulated: min %d max %d", key, lo, hi)
		}
	}
}

func TestFig4KeyDistorted(t *testing.T) {
	res, err := KeyDistortion(context.Background(), 0x2AAAAAAA, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.KeyRecovered() {
		t.Fatal("mild shaping left the key fully recoverable")
	}
	if res.DistortedBits == res.KeyLen {
		t.Fatal("mild shaping destroyed the envelope entirely (that is CovertChannel's job)")
	}
}

func TestFig2TradeoffSpace(t *testing.T) {
	res, err := TradeoffSpace(context.Background(), "bzip", testCycles, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 6 {
		t.Fatalf("%d points", len(res.Points))
	}
	var noshape, cs TradeoffPoint
	camCount := 0
	for _, p := range res.Points {
		switch {
		case p.Label == "NoShaping":
			noshape = p
		case p.Label == "CS":
			cs = p
		default:
			camCount++
			// Every Camouflage point must leak less than no shaping.
			if p.MI >= noshape.MI {
				t.Errorf("%s leaks %.3f >= unshaped %.3f", p.Label, p.MI, noshape.MI)
			}
		}
	}
	if camCount < 4 {
		t.Fatalf("only %d Camouflage sweep points", camCount)
	}
	if noshape.RelPerf != 1 {
		t.Error("unshaped relative performance must be 1")
	}
	if cs.MI > 0.05 {
		t.Errorf("CS anchor leaks %.3f bits", cs.MI)
	}
	// The trade-off space must be real: some Camouflage point beats CS
	// on performance.
	better := false
	for _, p := range res.Points {
		if p.Label != "NoShaping" && p.Label != "CS" && p.RelPerf > cs.RelPerf {
			better = true
		}
	}
	if !better {
		t.Error("no Camouflage point outperforms CS — no trade-off space")
	}
}

func TestFig3DistributionsDiffer(t *testing.T) {
	res, err := ShapedDistributions(context.Background(), "bzip", testCycles, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, pmf := range map[string][]float64{
		"intrinsic": res.Intrinsic, "CS": res.CS, "TP": res.TP, "Camouflage": res.Camouflage,
	} {
		var sum float64
		for _, p := range pmf {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s pmf sums to %v", name, sum)
		}
	}
	// CS concentrates: its max bin beyond any other scheme's.
	maxOf := func(pmf []float64) float64 {
		m := 0.0
		for _, p := range pmf {
			if p > m {
				m = p
			}
		}
		return m
	}
	if maxOf(res.CS) < 0.5 {
		t.Errorf("CS distribution not concentrated: %v", res.CS)
	}
	if maxOf(res.CS) <= maxOf(res.Camouflage) {
		t.Error("Camouflage as concentrated as CS — no flexibility")
	}
}

func TestGATimelineConverges(t *testing.T) {
	res, err := GATimeline(context.Background(), "gcc", "astar", 10, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BestPerGeneration) != 6 {
		t.Fatalf("%d generations", len(res.BestPerGeneration))
	}
	if res.Evaluations != 60 {
		t.Fatalf("%d evaluations, want 60", res.Evaluations)
	}
	if res.FinalSlowdown > res.InitialSlowdown {
		t.Errorf("GA regressed: %.3f -> %.3f", res.InitialSlowdown, res.FinalSlowdown)
	}
	if res.FinalSlowdown < 1 {
		t.Errorf("final slowdown %.3f below 1 (MISE floor)", res.FinalSlowdown)
	}
}

func TestHeadlineSpeedups(t *testing.T) {
	r, err := HeadlineSpeedups(context.Background(), 150_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("vs CS %.4f, vs TP %.4f, vs FS %.4f", r.VsCS, r.VsTP, r.VsFS)
	// The abstract's claims, with generous bands: Camouflage beats every
	// baseline, CS modestly, TP the most.
	if r.VsCS < 1.02 {
		t.Errorf("vs CS %.2f, want > 1.02 (paper 1.12)", r.VsCS)
	}
	if r.VsTP < 1.3 {
		t.Errorf("vs TP %.2f, want > 1.3 (paper 1.50)", r.VsTP)
	}
	if r.VsFS < 1.15 {
		t.Errorf("vs FS %.2f, want > 1.15 (paper 1.32)", r.VsFS)
	}
	if r.VsTP < r.VsFS {
		t.Errorf("ordering broken: TP gain %.2f below FS gain %.2f", r.VsTP, r.VsFS)
	}
	// Upper bounds: the values measured here (150k cycles, seed 1; see
	// EXPERIMENTS.md) plus a 25% margin, so a baseline model that drifts
	// too harsh — inflating Camouflage's gain — fails as well.
	const margin = 1.25
	for _, c := range []struct {
		name          string
		got, measured float64
	}{
		{"CS", r.VsCS, 1.098},
		{"TP", r.VsTP, 2.282},
		{"FS", r.VsFS, 1.665},
	} {
		if limit := c.measured * margin; c.got > limit {
			t.Errorf("vs %s %.2f, want < %.2f (measured %.3f + %.0f%%)", c.name, c.got, limit, c.measured, (margin-1)*100)
		}
	}
}
