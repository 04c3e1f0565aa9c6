package harness

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// TestChaosZeroLostInvocations kills the busiest worker mid-run in both
// modes and requires every invocation to complete anyway — the recovery
// layer's core guarantee. The dead worker's tasks must actually have been
// re-placed and re-issued, not just lucky.
func TestChaosZeroLostInvocations(t *testing.T) {
	rows, err := sweep([]time.Duration{0}, chaosOne)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 modes", len(rows))
	}
	if err := checkChaos(rows); err != nil {
		t.Fatal(err)
	}
	if rows[0].mode != engine.ModeWorkerSP || rows[1].mode != engine.ModeMasterSP {
		t.Fatalf("mode order %v, %v", rows[0].mode, rows[1].mode)
	}
	for i, doctor := range []func(*chaosRow){
		func(r *chaosRow) { r.completed-- },
		func(r *chaosRow) { r.failed = 1 },
		func(r *chaosRow) { r.stats.Replacements = 0 },
		func(r *chaosRow) { r.stats.Reissues = 0 },
	} {
		bad := append([]chaosRow(nil), rows...)
		doctor(&bad[1])
		if checkChaos(bad) == nil {
			t.Errorf("doctored row %d passed the chaos gate", i)
		}
	}
}

// TestChaosRecoveryEventsInTrace verifies the fault and recovery path is
// observable end to end: the snapshot must carry the node fault window and
// the per-executor recovery events with their re-placement targets.
func TestChaosRecoveryEventsInTrace(t *testing.T) {
	r, err := chaosOne(engine.ModeWorkerSP, 0)
	if err != nil {
		t.Fatal(err)
	}
	nodeFaults, recoveries, replacedTo := 0, 0, 0
	for _, ev := range r.snapshot.Events {
		switch e := ev.Ev.(type) {
		case obs.NodeFaultEvent:
			nodeFaults++
			if e.Node != r.victim {
				t.Errorf("node-fault targets %q, victim was %q", e.Node, r.victim)
			}
		case obs.RecoveryEvent:
			recoveries++
			if e.NewWorker != e.OldWorker {
				replacedTo++
			}
			if e.NewWorker == r.victim && e.Reason == "node-down" {
				t.Errorf("node-down recovery re-issued onto the dead victim %q", r.victim)
			}
		}
	}
	if nodeFaults != 2 {
		t.Errorf("snapshot has %d node-fault events, want 2 (down + recover)", nodeFaults)
	}
	if recoveries == 0 {
		t.Error("snapshot has no recovery events")
	}
	if replacedTo == 0 {
		t.Error("no recovery event shows a re-placed worker")
	}
}

// TestChaosWithEngineKill layers an engine crash on top of the node kill:
// the journal-backed deployment must replay committed steps after restart
// and still lose nothing.
func TestChaosWithEngineKill(t *testing.T) {
	r, err := chaosOne(engine.ModeWorkerSP, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.lost() != 0 {
		t.Fatalf("lost %d of %d invocations", r.lost(), r.invocations)
	}
	if r.durable.EngineCrashes != 1 {
		t.Fatalf("engine crashes = %d, want 1", r.durable.EngineCrashes)
	}
	if r.durable.ReplaySkips == 0 {
		t.Fatal("restart replayed no committed steps")
	}
}

// TestChaosDeterministic reruns the registered chaos
// scenario and requires byte-identical Reports, snapshots included.
func TestChaosDeterministic(t *testing.T) {
	requireDeterministic(t, "chaos")
}
