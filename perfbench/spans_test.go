package main

import "testing"

func TestSelfTimeFromNestedSpans(t *testing.T) {
	spans := []span{
		{Name: "run", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: concurrent clients
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past its parent: clipped
		{Name: "d", Start: 22, End: 25, Parent: 2},  // grandchild: charged to b only
		{Name: "open", Start: 60, End: -1, Parent: 0},
	}
	computeSelf(spans)
	want := []int64{100 - 40 - 10, 20, 30 - 3, 30, 3, 0}
	for i, w := range want {
		if spans[i].Self != w {
			t.Errorf("span %s self = %d, want %d", spans[i].Name, spans[i].Self, w)
		}
	}
	totals := spanTotals(spans)
	if len(totals) != 5 || totals[0].Name != "a" || totals[4].Name != "run" {
		t.Fatalf("spanTotals = %+v", totals)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	if i := tr.begin("x", -1, 0); i != -1 {
		t.Fatalf("nil tracer begin = %d", i)
	}
	tr.end(-1)
	live := newTracer()
	i := live.begin("x", -1, 7)
	live.end(i)
	got := live.finish()
	if len(got) != 1 || got[0].Inv != 7 || got[0].End < got[0].Start || got[0].Self != got[0].End-got[0].Start {
		t.Fatalf("spans = %+v", got)
	}
}
