package harness

import (
	"testing"
	"time"
)

func sweepRows() []tailRow {
	// Synthetic sweep shaped like Fig 12's Vid panel: the baseline improves
	// with bandwidth; the target is flat and matches the baseline's 100.
	mk := func(sys System, bw float64, p99 time.Duration) tailRow {
		return tailRow{Bench: "Vid", Sys: sys, StorageMB: bw, PerMinute: 6, P99: p99}
	}
	return []tailRow{
		mk(HyperFlow, 25, 8*time.Second),
		mk(HyperFlow, 50, 6*time.Second),
		mk(HyperFlow, 75, 5*time.Second),
		mk(HyperFlow, 100, 4*time.Second),
		mk(FaaSFlowFaaStore, 25, 4*time.Second),
		mk(FaaSFlowFaaStore, 50, 4*time.Second),
		mk(FaaSFlowFaaStore, 75, 4*time.Second),
		mk(FaaSFlowFaaStore, 100, 4*time.Second),
	}
}

func TestBandwidthMultiplier(t *testing.T) {
	m, err := bandwidthMultiplier(sweepRows(), "Vid", HyperFlow, FaaSFlowFaaStore)
	if err != nil {
		t.Fatal(err)
	}
	if m != 4 {
		t.Fatalf("multiplier = %v, want 4 (target@25 == baseline@100)", m)
	}
}

func TestBandwidthMultiplierBaselineNeverMatches(t *testing.T) {
	rows := sweepRows()
	// Make the target strictly better than the baseline everywhere.
	for i := range rows {
		if rows[i].Sys == FaaSFlowFaaStore {
			rows[i].P99 = time.Second
		}
	}
	m, err := bandwidthMultiplier(rows, "Vid", HyperFlow, FaaSFlowFaaStore)
	if err == nil {
		t.Fatal("expected out-of-range error")
	}
	if m != 4 {
		t.Fatalf("lower bound = %v, want 4 (sweep max / target min)", m)
	}
}

func TestBandwidthMultiplierMissingBench(t *testing.T) {
	if _, err := bandwidthMultiplier(nil, "Vid", HyperFlow, FaaSFlowFaaStore); err == nil {
		t.Fatal("empty rows accepted")
	}
}

func TestThroughputDegradation(t *testing.T) {
	rows := sweepRows()
	d, err := throughputDegradation(rows, "Vid", HyperFlow)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1.0 { // 8s at 25 vs 4s at 100 -> +100%
		t.Fatalf("HyperFlow degradation = %v, want 1.0", d)
	}
	d, err = throughputDegradation(rows, "Vid", FaaSFlowFaaStore)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("flat target degradation = %v, want 0", d)
	}
	if _, err := throughputDegradation(rows, "Gen", HyperFlow); err == nil {
		t.Fatal("missing bench accepted")
	}
}

func TestOverheadReductionFromRows(t *testing.T) {
	rows := []overheadRow{
		{Bench: "Cyc", Scientific: true, Overhead: map[System]time.Duration{
			HyperFlow: 800 * time.Millisecond, FaaSFlow: 200 * time.Millisecond}},
		{Bench: "Vid", Scientific: false, Overhead: map[System]time.Duration{
			HyperFlow: 200 * time.Millisecond, FaaSFlow: 50 * time.Millisecond}},
	}
	got := overheadReduction(rows, HyperFlow, FaaSFlow)
	want := 1 - (0.2+0.05)/(0.8+0.2)
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("reduction = %v, want %v", got, want)
	}
	if overheadReduction(nil, HyperFlow, FaaSFlow) != 0 {
		t.Fatal("empty rows should give 0")
	}
}

// End-to-end: the measured sweep must reproduce the paper's multiplier
// claim for Vid (>= 2x; the paper reports up to 4x).
func TestMeasuredBandwidthMultiplier(t *testing.T) {
	rows, err := tailLatency([]string{"Vid"}, []System{HyperFlow, FaaSFlowFaaStore},
		[]float64{25, 50, 75, 100}, []float64{6}, 25)
	if err != nil {
		t.Fatal(err)
	}
	m, err := bandwidthMultiplier(rows, "Vid", HyperFlow, FaaSFlowFaaStore)
	if m < 2 {
		t.Fatalf("measured multiplier = %.1f (err=%v), want >= 2 (paper: up to 4x)", m, err)
	}
}
