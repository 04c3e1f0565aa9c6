package harness

import (
	"strings"
	"testing"
	"time"
)

func TestChartOverhead(t *testing.T) {
	rows := []overheadRow{
		{Bench: "Cyc", Overhead: map[System]time.Duration{HyperFlow: 800 * time.Millisecond, FaaSFlow: 200 * time.Millisecond}},
		{Bench: "Vid", Overhead: map[System]time.Duration{HyperFlow: 160 * time.Millisecond, FaaSFlow: 40 * time.Millisecond}},
	}
	c := chartOverhead(rows, []System{HyperFlow, FaaSFlow})
	svg, err := c.SVG()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Cyc", "Vid", "HyperFlow-serverless", "FaaSFlow"} {
		if !strings.Contains(svg, want) {
			t.Errorf("missing %q", want)
		}
	}
	if c.Series[0].Values[0] != 800 {
		t.Fatalf("ms conversion wrong: %v", c.Series[0].Values[0])
	}
}

func TestChartMovementLogScale(t *testing.T) {
	rows := []movementRow{
		{Bench: "Cyc", Monolithic: 24_000_000, FaaS: 1_182_000_000},
		{Bench: "Vid", Monolithic: 4_230_000, FaaS: 96_820_000},
	}
	c := chartMovement(rows)
	if !c.LogScale {
		t.Fatal("Fig 5 chart must be log scale")
	}
	if _, err := c.SVG(); err != nil {
		t.Fatal(err)
	}
}

func TestChartTransfer(t *testing.T) {
	rows := []transferRow{
		{Bench: "Cyc", HyperFlow: 103 * time.Second, FaaStore: 8 * time.Second},
		{Bench: "IR", HyperFlow: 210 * time.Millisecond, FaaStore: 94 * time.Millisecond},
	}
	if _, err := chartTransfer(rows).SVG(); err != nil {
		t.Fatal(err)
	}
}

func TestChartTailGroupsBySystem(t *testing.T) {
	rows := []tailRow{
		{Bench: "Cyc", Sys: HyperFlow, StorageMB: 50, PerMinute: 6, P99: 60 * time.Second},
		{Bench: "Cyc", Sys: FaaSFlowFaaStore, StorageMB: 50, PerMinute: 6, P99: 17 * time.Second},
		{Bench: "Vid", Sys: HyperFlow, StorageMB: 50, PerMinute: 6, P99: 5 * time.Second},
		{Bench: "Vid", Sys: FaaSFlowFaaStore, StorageMB: 50, PerMinute: 6, P99: 4 * time.Second},
	}
	c := chartTail(rows)
	if len(c.Categories) != 2 || len(c.Series) != 2 {
		t.Fatalf("shape = %d categories, %d series", len(c.Categories), len(c.Series))
	}
	if c.Series[0].Values[0] != 60 {
		t.Fatalf("seconds conversion wrong: %v", c.Series[0].Values[0])
	}
	if _, err := c.SVG(); err != nil {
		t.Fatal(err)
	}
}

func TestChartBandwidthSweepFilters(t *testing.T) {
	rows := []tailRow{
		{Bench: "Gen", Sys: HyperFlow, StorageMB: 25, PerMinute: 6, P99: 22 * time.Second},
		{Bench: "Gen", Sys: HyperFlow, StorageMB: 100, PerMinute: 6, P99: 8 * time.Second},
		{Bench: "Gen", Sys: FaaSFlowFaaStore, StorageMB: 25, PerMinute: 6, P99: 11 * time.Second},
		{Bench: "Gen", Sys: FaaSFlowFaaStore, StorageMB: 100, PerMinute: 6, P99: 7 * time.Second},
		// Different rate and bench rows must be excluded.
		{Bench: "Gen", Sys: HyperFlow, StorageMB: 25, PerMinute: 2, P99: 15 * time.Second},
		{Bench: "Vid", Sys: HyperFlow, StorageMB: 25, PerMinute: 6, P99: 7 * time.Second},
	}
	c := chartBandwidthSweep(rows, "Gen", 6)
	if len(c.Series) != 2 {
		t.Fatalf("series = %d", len(c.Series))
	}
	for _, s := range c.Series {
		if len(s.Points) != 2 {
			t.Fatalf("series %s points = %d, want 2", s.Name, len(s.Points))
		}
	}
	if _, err := c.SVG(); err != nil {
		t.Fatal(err)
	}
}

func TestChartCoLocationPercent(t *testing.T) {
	rows := []coLocationRow{
		{Bench: "Vid", Sys: HyperFlow, Solo: 4 * time.Second, CoRun: 8 * time.Second},
		{Bench: "Vid", Sys: FaaSFlowFaaStore, Solo: 4 * time.Second, CoRun: 5 * time.Second},
	}
	c := chartCoLocation(rows)
	if c.Series[0].Values[0] != 100 {
		t.Fatalf("degradation %% = %v, want 100", c.Series[0].Values[0])
	}
	if c.Series[1].Values[0] != 25 {
		t.Fatalf("degradation %% = %v, want 25", c.Series[1].Values[0])
	}
	if _, err := c.SVG(); err != nil {
		t.Fatal(err)
	}
}

func TestChartSchedulerCost(t *testing.T) {
	rows := []schedulerCostRow{
		{Nodes: 10, WallTime: 70 * time.Microsecond, AllocBytes: 30_000},
		{Nodes: 200, WallTime: 9 * time.Millisecond, AllocBytes: 4_380_000},
	}
	c := chartSchedulerCost(rows)
	if len(c.Series) != 2 {
		t.Fatalf("series = %d", len(c.Series))
	}
	if _, err := c.SVG(); err != nil {
		t.Fatal(err)
	}
}
