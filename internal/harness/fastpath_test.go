package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

func TestFastPathScenarioGates(t *testing.T) {
	rows, err := sweep(fastPathVariants, fastPathOne)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // 2 modes × 4 variants
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	if err := checkFastPath(rows); err != nil {
		t.Fatal(err)
	}
	if tab := renderFastPath(rows); tab.String() == "" {
		t.Fatal("empty fast-path table rendering")
	}
}

// TestCheckFastPathFullMustBeatEveryVariant feeds the gate a sweep whose
// full variant beats the baseline but not pre-warm alone.
func TestCheckFastPathFullMustBeatEveryVariant(t *testing.T) {
	row := func(variant string, mean time.Duration) fastPathRow {
		return fastPathRow{mode: engine.ModeWorkerSP, variant: variant, mean: mean,
			stats: engine.FastPathStats{DirectPushes: 1, PrewarmIssued: 1, PrewarmHits: 1, MemoHits: 1}}
	}
	rows := []fastPathRow{
		row(variantOff, 10*time.Second),
		row(variantDirect, 8*time.Second),
		row(variantPrewarm, 2*time.Second),
		row(variantFull, 3*time.Second),
	}
	err := checkFastPath(rows)
	if err == nil || !strings.Contains(err.Error(), variantPrewarm) {
		t.Fatalf("full slower than prewarm: gate error %v, want one naming %s", err, variantPrewarm)
	}
	rows[3].mean = time.Second
	if err := checkFastPath(rows); err != nil {
		t.Fatalf("full fastest: %v", err)
	}
}

// TestFastPathScenarioDeterministic reruns the registered fastpath
// scenario and requires byte-identical Reports, snapshots included.
func TestFastPathScenarioDeterministic(t *testing.T) {
	requireDeterministic(t, "fastpath")
}
