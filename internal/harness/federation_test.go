package harness

import (
	"bytes"
	"testing"

	"repro/internal/engine"
)

// federationRows runs both federated chaos scenarios under mode.
func federationRows(t *testing.T, mode engine.Mode, members int, seed uint64) []federationRow {
	t.Helper()
	var rows []federationRow
	for _, scenario := range fedScenarios {
		r, err := federationOne(mode, scenario, members, seed)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	return rows
}

// TestFederationScenarioGates runs both federated chaos scenarios and
// enforces the acceptance gates: every invocation completes, zero lost,
// zero double-finishes and zero double-commits across rolling engine
// kills; the stall false positive is resolved by fencing.
func TestFederationScenarioGates(t *testing.T) {
	rows := federationRows(t, engine.ModeWorkerSP, 3, 11)
	if err := checkFederation(rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.scenario == rollingKill && r.handoffs == 0 {
			t.Errorf("%s/%s: no handoffs recorded", r.mode, r.scenario)
		}
	}
}

// TestFederationBothModes exercises MasterSP too, with a smaller
// federation.
func TestFederationBothModes(t *testing.T) {
	rows := append(federationRows(t, engine.ModeWorkerSP, 2, 5),
		federationRows(t, engine.ModeMasterSP, 2, 5)...)
	if err := checkFederation(rows); err != nil {
		t.Fatal(err)
	}
}

// TestFederationDeterministic runs the same seed twice and requires
// byte-identical snapshots — lease expiries, claim-race winners, fences,
// and handoff replays are all pure functions of the seed — and reruns the
// registered federation scenario likewise.
func TestFederationDeterministic(t *testing.T) {
	requireDeterministic(t, "federation")
	a := federationRows(t, engine.ModeWorkerSP, 3, 42)
	b := federationRows(t, engine.ModeWorkerSP, 3, 42)
	for i := range a {
		da, err := a[i].snapshot.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		db, err := b[i].snapshot.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Errorf("%s/%s: same-seed federated runs produced different snapshots (%d vs %d bytes)",
				a[i].mode, a[i].scenario, len(da), len(db))
		}
	}
}

// TestCheckFederationCatchesViolations feeds doctored rows through the
// gate checker.
func TestCheckFederationCatchesViolations(t *testing.T) {
	rows := federationRows(t, engine.ModeWorkerSP, 2, 5)
	bad := append([]federationRow(nil), rows...)
	bad[0].completed--
	if err := checkFederation(bad); err == nil {
		t.Error("lost invocation passed the gate")
	}
	bad = append([]federationRow(nil), rows...)
	bad[0].fed.DupDones = 1
	if err := checkFederation(bad); err == nil {
		t.Error("double-finish passed the gate")
	}
	bad = append([]federationRow(nil), rows...)
	for i := range bad {
		if bad[i].scenario == rollingKill {
			bad[i].maxHandoff = fedHandoffBudget * 2
		}
	}
	if err := checkFederation(bad); err == nil {
		t.Error("blown handoff budget passed the gate")
	}
	bad = append([]federationRow(nil), rows...)
	for i := range bad {
		if bad[i].scenario == stall {
			bad[i].fed.FencedTotal = 0
		}
	}
	if err := checkFederation(bad); err == nil {
		t.Error("unfenced stall passed the gate")
	}
}
