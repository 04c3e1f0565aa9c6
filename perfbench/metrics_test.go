package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the
// benchmark's users read, in step with the metric tables the benchmark
// prints from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", tc.name, len(tc.got), len(tc.want))
		}
		for i := range tc.want {
			if tc.got[i] != tc.want[i] {
				t.Errorf("%s[%d] = %+v in BENCHMARK.json, %+v in the table", tc.name, i, tc.got[i], tc.want[i])
			}
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(allWorkloads) {
		t.Errorf("BENCHMARK.json lists %s; the benchmark has %d workloads", strings.Join(names, ", "), len(allWorkloads))
	}
}

func TestResultJSONOrderAndShape(t *testing.T) {
	defs := []metricDef{{"b_metric", "ms", "lower"}, {"a_metric", "count", "lower"}}
	got := resultJSON(true, 3, 0, defs, report{"a_metric": {V: 2}, "b_metric": {V: 1.25}})
	want := `{"correct": true, "attempted": 3, "failed": 0, "metrics": {"b_metric": {"value": 1.25, "unit": "ms"}, "a_metric": {"value": 2, "unit": "count"}}}`
	if got != want {
		t.Fatalf("resultJSON =\n%s\nwant\n%s", got, want)
	}
	var v map[string]any
	if err := json.Unmarshal([]byte(got), &v); err != nil {
		t.Fatalf("result line is not JSON: %v", err)
	}
}
