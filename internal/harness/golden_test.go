package harness

// Golden calibration tests: the simulation is deterministic, so key
// experiment outputs are pinned (with modest tolerances for future model
// refinements). When a substrate change moves these numbers, the change is
// either a bug or a deliberate recalibration — in the latter case update
// both these bounds and EXPERIMENTS.md.

import (
	"math"
	"testing"

	"repro/internal/workloads"
)

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*want {
		t.Errorf("%s = %.4g, want %.4g ±%.0f%%", name, got, want, tol*100)
	}
}

func TestGoldenFig5Bytes(t *testing.T) {
	rows, err := dataMovement()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{ // measured MB, pinned 2026-07
		"Cyc": 1239.2, "Epi": 62.3, "Gen": 318.8, "Soy": 177.8,
		"Vid": 96.1, "IR": 8.65, "FP": 42.5, "WC": 34.6,
	}
	for _, r := range rows {
		within(t, "Fig5 "+r.Bench, float64(r.FaaS)/1e6, want[r.Bench], 0.02)
	}
}

func TestGoldenFig11Averages(t *testing.T) {
	rows, err := schedulingOverhead([]System{HyperFlow, FaaSFlow}, 20)
	if err != nil {
		t.Fatal(err)
	}
	hSci, hApp := overheadAverages(rows, HyperFlow)
	fSci, fApp := overheadAverages(rows, FaaSFlow)
	within(t, "HyperFlow sci overhead (ms)", hSci.Seconds()*1000, 615, 0.10)
	within(t, "HyperFlow app overhead (ms)", hApp.Seconds()*1000, 148, 0.10)
	within(t, "FaaSFlow sci overhead (ms)", fSci.Seconds()*1000, 162, 0.10)
	within(t, "FaaSFlow app overhead (ms)", fApp.Seconds()*1000, 42, 0.15)
	within(t, "overhead reduction", overheadReduction(rows, HyperFlow, FaaSFlow), 0.73, 0.07)
}

func TestGoldenTable4(t *testing.T) {
	rows, err := transferLatency(5)
	if err != nil {
		t.Fatal(err)
	}
	wantHyper := map[string]float64{ // seconds, pinned 2026-07
		"Cyc": 103.2, "Epi": 1.56, "Gen": 30.6, "Soy": 14.7,
		"Vid": 6.45, "IR": 0.21, "FP": 1.18, "WC": 2.03,
	}
	wantRed := map[string]float64{
		"Cyc": 0.92, "Epi": 0.73, "Gen": 0.43, "Soy": 0.06,
		"Vid": 0.90, "IR": 0.55, "FP": 0.76, "WC": 0.88,
	}
	for _, r := range rows {
		within(t, "Table4 Hyper "+r.Bench, r.HyperFlow.Seconds(), wantHyper[r.Bench], 0.10)
		got := r.Reduction()
		want := wantRed[r.Bench]
		if math.Abs(got-want) > 0.08 {
			t.Errorf("Table4 reduction %s = %.2f, want %.2f ±0.08", r.Bench, got, want)
		}
	}
}

func TestGoldenBenchmarkInventory(t *testing.T) {
	// The workload definitions themselves are part of the calibration.
	type shape struct {
		tasks, edges int
		totalMB      float64
	}
	want := map[string]shape{ // decimal MB, pinned 2026-07
		"Cyc": {50, 93, 619.6},
		"Epi": {50, 59, 31.2},
		"Gen": {50, 96, 159.4},
		"Soy": {50, 94, 88.9},
		"Vid": {10, 16, 48.1},
		"IR":  {6, 6, 4.33},
		"FP":  {5, 4, 21.2},
		"WC":  {14, 44, 17.3},
	}
	for _, b := range workloads.All() {
		w := want[b.Name]
		if got := b.Graph.TaskCount(); got != w.tasks {
			t.Errorf("%s tasks = %d, want %d", b.Name, got, w.tasks)
		}
		if got := b.Graph.NumEdges(); got != w.edges {
			t.Errorf("%s edges = %d, want %d", b.Name, got, w.edges)
		}
		within(t, b.Name+" total MB", float64(b.Graph.TotalBytes())/1e6, w.totalMB, 0.02)
	}
}
