package harness

import (
	"testing"

	"repro/internal/engine"
)

// TestDurableGatesPass runs both durability scenarios in both modes and
// enforces the acceptance gates: zero lost invocations everywhere; after
// an engine kill, replay skips committed steps and re-executes none; after
// a node kill with 2-way replication, consumers read surviving replicas
// instead of re-executing producers.
func TestDurableGatesPass(t *testing.T) {
	rows, err := sweep(durableScenarios, durableOne)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 2 modes × 2 scenarios", len(rows))
	}
	if err := checkDurable(rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.scenario == engineKill && r.durable.Redispatched == 0 {
			t.Errorf("%s/%s: restart re-dispatched nothing", r.mode, r.scenario)
		}
		if r.scenario == nodeKill && r.repl.ReReplications == 0 {
			t.Errorf("%s/%s: no background re-replication after the kill", r.mode, r.scenario)
		}
	}
}

// TestDurableRenderAndCheckErrors exercises the table renderer and the
// gate messages on a hand-built failing row.
func TestDurableRenderAndCheckErrors(t *testing.T) {
	bad := []durableRow{{mode: engine.ModeWorkerSP, scenario: engineKill, tally: tally{invocations: 5, completed: 4}}}
	if err := checkDurable(bad); err == nil {
		t.Fatal("checkDurable accepted a lost invocation")
	}
	bad[0].completed = 5
	if err := checkDurable(bad); err == nil {
		t.Fatal("checkDurable accepted an engine-kill row with no crash")
	}
	if tbl := renderDurable(bad); tbl == nil {
		t.Fatal("renderDurable returned nil")
	}
}

// TestDurableDeterministic reruns the registered durable
// scenario and requires byte-identical Reports, snapshots included.
func TestDurableDeterministic(t *testing.T) {
	requireDeterministic(t, "durable")
}
