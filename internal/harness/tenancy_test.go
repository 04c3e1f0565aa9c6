package harness

import (
	"testing"

	"repro/internal/engine"
)

func TestTenancyNoisyNeighborGate(t *testing.T) {
	rows, err := tenancy()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTenancy(rows); err != nil {
		t.Fatalf("zero-starvation gate tripped: %v", err)
	}
	row := rows[0]
	if len(row.tenants) != 21 {
		t.Fatalf("tenant count = %d, want 21", len(row.tenants))
	}
	var noisy tenantOutcome
	for _, tn := range row.tenants {
		if tn.admitted+tn.rejected != tn.offered {
			t.Fatalf("tenant %s: admitted %d + rejected %d != offered %d",
				tn.tenant, tn.admitted, tn.rejected, tn.offered)
		}
		if got := tn.goodput + tn.deadlined + tn.failed; got != tn.admitted {
			t.Fatalf("tenant %s: goodput %d + deadlined %d + failed %d = %d, want admitted %d",
				tn.tenant, tn.goodput, tn.deadlined, tn.failed, got, tn.admitted)
		}
		if tn.noisy {
			noisy = tn
		}
	}
	if noisy.tenant != "noisy" {
		t.Fatal("noisy tenant missing from outcomes")
	}
	// The misbehaving tenant offered 10x its share; the per-tenant bucket
	// must clip it near its slice, not let it crowd the others out.
	if noisy.rejected == 0 {
		t.Fatal("noisy tenant at 10x fair share was never rejected")
	}
	if noisy.admitted > noisy.offered/4 {
		t.Fatalf("noisy tenant admitted %d of %d offered — bucket not clipping",
			noisy.admitted, noisy.offered)
	}
}

func TestTenancyRenderAndCheckErrors(t *testing.T) {
	tn := tenantOutcome{tenant: "tenant-00"}
	tn.offered, tn.goodput = 100, 50
	rows := []tenancyRow{{
		mode:       engine.ModeWorkerSP,
		tenants:    []tenantOutcome{tn},
		refGoodput: 100,
		aggGoodput: 50,
	}}
	if err := checkTenancy(rows); err == nil {
		t.Fatal("starved tenant passed the gate")
	}
	rows[0].tenants[0].goodput = 95
	rows[0].aggGoodput = 95
	rows[0].refGoodput = 200
	if err := checkTenancy(rows); err == nil {
		t.Fatal("aggregate drift passed the gate")
	}
	rows[0].refGoodput = 100
	if err := checkTenancy(rows); err != nil {
		t.Fatalf("healthy row tripped the gate: %v", err)
	}
	if tbl := renderTenancy(rows); tbl == nil {
		t.Fatal("renderTenancy returned nil")
	}
}

// TestTenancySameSeedSnapshotsIdentical reruns the registered tenants
// scenario and requires byte-identical Reports, snapshots included.
func TestTenancySameSeedSnapshotsIdentical(t *testing.T) {
	requireDeterministic(t, "tenants")
}
