package main

import (
	"io"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestSelectExperimentsRejectsUnknownNames: a misspelt scenario must fail
// the run instead of being skipped while the rest passes.
func TestSelectExperimentsRejectsUnknownNames(t *testing.T) {
	_, err := selectExperiments("chaos,tenancy")
	if err == nil {
		t.Fatal("-run chaos,tenancy selected without error; tenancy is not a -run name")
	}
	for _, want := range []string{"tenancy", "known:", "fig4", "tenants"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestSelectExperiments(t *testing.T) {
	got, err := selectExperiments(" tenants, chaos ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "chaos" || got[1].Name != "tenants" {
		t.Fatalf("selected %v, want chaos then tenants in table order", got)
	}
	all, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(harness.Scenarios) {
		t.Fatalf("all selected %d of %d experiments", len(all), len(harness.Scenarios))
	}
	for _, sc := range harness.Scenarios {
		if !strings.Contains(" "+knownExperiments()+" ", " "+sc.Name+" ") {
			t.Errorf("scenario %s missing from the known list", sc.Name)
		}
	}
}

// TestParseFlagsRejectsNonPositiveN: -n below 1 would hang the closed
// loops, panic the open loops or print negative overheads, so the command
// line is refused (main exits 2) before anything runs.
func TestParseFlagsRejectsNonPositiveN(t *testing.T) {
	for _, n := range []string{"0", "-1", "-5"} {
		if _, err := parseFlags([]string{"-run", "fig4", "-n", n}, io.Discard); err == nil {
			t.Errorf("-n %s accepted", n)
		}
	}
	c, err := parseFlags([]string{"-run", "fig12", "-n", "1"}, io.Discard)
	if err != nil || c.n != 1 {
		t.Fatalf("-n 1: got n=%d, err %v", c.n, err)
	}
}
