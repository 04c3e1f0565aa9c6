package main

import (
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
	if len(got) != 2 || got[0].name != "chaos" || got[1].name != "tenants" {
		t.Fatalf("selected %v, want chaos then tenants in table order", got)
	}
	all, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(experiments) {
		t.Fatalf("all selected %d of %d experiments", len(all), len(experiments))
	}
	for _, sc := range harness.Scenarios {
		if !strings.Contains(" "+knownExperiments()+" ", " "+sc.Name+" ") {
			t.Errorf("scenario %s missing from the known list", sc.Name)
		}
	}
}
