package main

import (
	"testing"
)

func testConfig(seed uint64) config {
	return config{seed: seed, placementSeed: 1, arrivalSeed: mix(seed, 2)}
}

func roundDigest(t *testing.T, w workload, cfg config) string {
	t.Helper()
	rr, err := runRound(w, cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rr.checks {
		if !c.ok {
			t.Errorf("%s check %s failed: %s", w.name, c.name, c.detail)
		}
	}
	if rr.completed != rr.issued || rr.issued == 0 || rr.failedOps != 0 {
		t.Fatalf("%s: %d of %d completed, %d failed", w.name, rr.completed, rr.issued, rr.failedOps)
	}
	return digest(rr.simLat)
}

func TestSameSeedSameDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full rounds")
	}
	cfg := testConfig(1)
	if a, b := roundDigest(t, genomeClosed, cfg), roundDigest(t, genomeClosed, cfg); a != b {
		t.Fatalf("genome-closed digests differ for one seed: %s vs %s", a, b)
	}
}

func TestArrivalSeedChangesMixDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full rounds")
	}
	a := testConfig(1)
	b := a
	b.arrivalSeed = mix(99, 2)
	if da, db := roundDigest(t, hyperflowMixOpen, a), roundDigest(t, hyperflowMixOpen, b); da == db {
		t.Fatalf("hyperflow-mix-open digest %s did not change with the arrival seed", da)
	}
}

func TestMixArrivalsDeterministic(t *testing.T) {
	a, b := mixArrivals(5, 8), mixArrivals(5, 8)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("arrivals %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].at < a[i-1].at {
			t.Fatalf("arrivals not in time order at %d", i)
		}
		if a[i].at < 0 || a[i].at >= mixWindow {
			t.Fatalf("arrival %d at %v outside the window", i, a[i].at)
		}
	}
}

func TestGatewayRoundChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full round")
	}
	roundDigest(t, gatewayMixed, testConfig(1))
}

func TestParseProm(t *testing.T) {
	p, err := parseProm([]byte("# HELP x\nx_total{a=\"1\",b=\"2\"} 3\nx_total{a=\"2\"} 4\ny 1.5e+02\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.sum("x_total"); got != 7 {
		t.Errorf("sum x_total = %g", got)
	}
	if got := p.sum("x_total", `a="1"`); got != 3 {
		t.Errorf("sum x_total{a=1} = %g", got)
	}
	if got := p.sum("y"); got != 150 {
		t.Errorf("sum y = %g", got)
	}
	if _, err := parseProm([]byte("novalue\n")); err == nil {
		t.Error("bad line accepted")
	}
}
