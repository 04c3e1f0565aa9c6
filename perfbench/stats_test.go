package main

import (
	"testing"
	"time"
)

func TestTailPercentileTenBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && beyond(got, tc.n) < 10 {
			t.Errorf("n=%d p%g leaves %d beyond", tc.n, got, beyond(got, tc.n))
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted input
	}
	s := summarize(xs)
	if s.N != 200 || s.P50 != 100 || s.TailP != 95 || s.Tail != 190 || s.Beyond != 10 {
		t.Fatalf("summarize = %+v", s)
	}
	if xs[0] != 200 {
		t.Fatal("summarize reordered its input")
	}
	few := summarize([]float64{3, 1, 2})
	if few.TailP != 100 || few.Tail != 3 || few.P50 != 2 {
		t.Fatalf("summarize(3 samples) = %+v", few)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %g", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("median = %g", got)
	}
}

func TestDigestOrderSensitive(t *testing.T) {
	a := digest([]time.Duration{1, 2, 3})
	if a != digest([]time.Duration{1, 2, 3}) {
		t.Fatal("digest not deterministic")
	}
	if a == digest([]time.Duration{1, 3, 2}) || a == digest([]time.Duration{1, 2, 4}) {
		t.Fatal("digest ignores order or value")
	}
}
