package harness

import (
	"testing"

	"repro/internal/engine"
)

func TestOverloadGracefulDegradationWithControls(t *testing.T) {
	rows, err := overload(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOverload(rows); err != nil {
		t.Fatalf("controls on, gate tripped: %v", err)
	}
	last := rows[len(rows)-1]
	if last.multiplier != 2 {
		t.Fatalf("last multiplier = %v, want 2", last.multiplier)
	}
	if last.rejected == 0 {
		t.Fatal("2x saturation with admission on rejected nothing")
	}
	if last.admitted+last.rejected != last.offered {
		t.Fatalf("admitted %d + rejected %d != offered %d", last.admitted, last.rejected, last.offered)
	}
	// Every admitted invocation is accounted for — none lost.
	if got := last.goodput + last.deadlined + last.failed; got != last.admitted {
		t.Fatalf("goodput %d + deadlined %d + failed %d = %d, want admitted %d",
			last.goodput, last.deadlined, last.failed, got, last.admitted)
	}
}

func TestOverloadCounterfactualCollapses(t *testing.T) {
	rows, err := overload(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOverload(rows); err == nil {
		t.Fatal("no-admission sweep passed the goodput gate; expected collapse past saturation")
	}
	last := rows[len(rows)-1]
	if last.rejected != 0 {
		t.Fatalf("no-admission run rejected %d arrivals", last.rejected)
	}
	if last.deadlined == 0 && last.failed == 0 {
		t.Fatal("2x saturation without admission shed nothing — not saturated")
	}
}

// TestOverloadGateRequiresCounterfactualCollapse checks the scenario gate
// on hand-built sweeps: a controlled sweep that holds its goodput passes
// only when the no-admission sweep collapses.
func TestOverloadGateRequiresCounterfactualCollapse(t *testing.T) {
	curve := func(admit bool, goodput ...int) []overloadRow {
		var rows []overloadRow
		for i, g := range goodput {
			r := overloadRow{mode: engine.ModeWorkerSP, admission: admit, multiplier: overloadMultipliers[i]}
			r.goodput = g
			rows = append(rows, r)
		}
		return rows
	}
	held := curve(true, 10, 20, 40, 40, 39)
	if err := overloadGate(held, curve(false, 10, 20, 40, 20, 10)); err != nil {
		t.Fatalf("held sweep with a collapsing counterfactual failed the gate: %v", err)
	}
	if overloadGate(held, curve(false, 10, 20, 40, 40, 38)) == nil {
		t.Fatal("a counterfactual that held its goodput passed the gate")
	}
	if overloadGate(curve(true, 10, 20, 40, 20, 10), curve(false, 10, 20, 40, 20, 10)) == nil {
		t.Fatal("a collapsed controlled sweep passed the gate")
	}
}

// TestOverloadSameSeedSnapshotsIdentical reruns the registered overload
// scenario and requires byte-identical Reports, snapshots included.
func TestOverloadSameSeedSnapshotsIdentical(t *testing.T) {
	requireDeterministic(t, "overload")
}
