package harness

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/viz"
)

// This file converts experiment rows into viz charts so the CLI can emit
// SVG figures alongside the tables — the reproduction's draw.sh.

// chartOverhead builds the Fig 4/11 grouped bar chart (overhead in ms).
func chartOverhead(rows []overheadRow, systems []System) *viz.BarChart {
	c := &viz.BarChart{Title: "Scheduling overhead", YLabel: "overhead (ms)"}
	for _, r := range rows {
		c.Categories = append(c.Categories, r.Bench)
	}
	for _, sys := range systems {
		s := viz.Series{Name: sys.String()}
		for _, r := range rows {
			s.Values = append(s.Values, float64(r.Overhead[sys])/float64(time.Millisecond))
		}
		c.Series = append(c.Series, s)
	}
	return c
}

// chartMovement builds the Fig 5 log-scale bar chart (MB moved).
func chartMovement(rows []movementRow) *viz.BarChart {
	c := &viz.BarChart{
		Title:    "Data movement per invocation",
		YLabel:   "MB (log scale)",
		LogScale: true,
	}
	mono := viz.Series{Name: "monolithic"}
	faas := viz.Series{Name: "FaaS"}
	for _, r := range rows {
		c.Categories = append(c.Categories, r.Bench)
		mono.Values = append(mono.Values, float64(r.Monolithic)/1e6)
		faas.Values = append(faas.Values, float64(r.FaaS)/1e6)
	}
	c.Series = []viz.Series{mono, faas}
	return c
}

// chartTransfer builds the Table 4 bar chart (seconds, log scale — Cyc is
// two orders of magnitude above IR).
func chartTransfer(rows []transferRow) *viz.BarChart {
	c := &viz.BarChart{
		Title:    "Total data-movement latency per invocation",
		YLabel:   "seconds (log scale)",
		LogScale: true,
	}
	hf := viz.Series{Name: HyperFlow.String()}
	ff := viz.Series{Name: FaaSFlowFaaStore.String()}
	for _, r := range rows {
		c.Categories = append(c.Categories, r.Bench)
		hf.Values = append(hf.Values, r.HyperFlow.Seconds())
		ff.Values = append(ff.Values, r.FaaStore.Seconds())
	}
	c.Series = []viz.Series{hf, ff}
	return c
}

// chartTail builds the Fig 13 bar chart from single-(bandwidth, rate)
// rows: p99 per benchmark per system.
func chartTail(rows []tailRow) *viz.BarChart {
	c := &viz.BarChart{Title: "p99 end-to-end latency", YLabel: "p99 (s)"}
	groupBars(c, len(rows), func(i int) (string, System, float64) {
		return rows[i].Bench, rows[i].Sys, rows[i].P99.Seconds()
	})
	return c
}

// groupBars fills c with one category per benchmark and one series per
// system, both in first-seen order, from n (benchmark, system, value)
// rows.
func groupBars(c *viz.BarChart, n int, row func(i int) (bench string, sys System, v float64)) {
	values := map[System]map[string]float64{}
	var systems []System
	for i := 0; i < n; i++ {
		bench, sys, v := row(i)
		if !slices.Contains(c.Categories, bench) {
			c.Categories = append(c.Categories, bench)
		}
		if values[sys] == nil {
			values[sys] = map[string]float64{}
			systems = append(systems, sys)
		}
		values[sys][bench] = v
	}
	for _, sys := range systems {
		s := viz.Series{Name: sys.String()}
		for _, b := range c.Categories {
			s.Values = append(s.Values, values[sys][b])
		}
		c.Series = append(c.Series, s)
	}
}

// chartBandwidthSweep builds one Fig 12 panel: p99 vs storage bandwidth
// for a single benchmark and arrival rate, one line per system.
func chartBandwidthSweep(rows []tailRow, bench string, rate float64) *viz.LineChart {
	c := &viz.LineChart{
		Title:  fmt.Sprintf("%s: p99 vs storage bandwidth (%.0f inv/min)", bench, rate),
		XLabel: "storage bandwidth (MB/s)",
		YLabel: "p99 (s)",
	}
	bySys := map[System]*viz.LineSeries{}
	var order []System
	for _, r := range rows {
		if r.Bench != bench || r.PerMinute != rate {
			continue
		}
		s := bySys[r.Sys]
		if s == nil {
			s = &viz.LineSeries{Name: r.Sys.String()}
			bySys[r.Sys] = s
			order = append(order, r.Sys)
		}
		s.Points = append(s.Points, viz.LinePoint{X: r.StorageMB, Y: r.P99.Seconds()})
	}
	for _, sys := range order {
		c.Series = append(c.Series, *bySys[sys])
	}
	return c
}

// chartCoLocation builds the Fig 14 bar chart (degradation %).
func chartCoLocation(rows []coLocationRow) *viz.BarChart {
	c := &viz.BarChart{Title: "Co-location degradation", YLabel: "degradation (%)"}
	groupBars(c, len(rows), func(i int) (string, System, float64) {
		return rows[i].Bench, rows[i].Sys, rows[i].Degradation() * 100
	})
	return c
}

// chartSchedulerCost builds the Fig 16 line chart (ms and MB vs nodes).
func chartSchedulerCost(rows []schedulerCostRow) *viz.LineChart {
	c := &viz.LineChart{
		Title:  "Graph Scheduler cost vs workflow size",
		XLabel: "function nodes",
		YLabel: "wall time (ms) / alloc (MB)",
	}
	wall := viz.LineSeries{Name: "wall time (ms)"}
	alloc := viz.LineSeries{Name: "alloc (MB)"}
	for _, r := range rows {
		wall.Points = append(wall.Points, viz.LinePoint{X: float64(r.Nodes), Y: float64(r.WallTime) / 1e6})
		alloc.Points = append(alloc.Points, viz.LinePoint{X: float64(r.Nodes), Y: float64(r.AllocBytes) / 1e6})
	}
	c.Series = []viz.LineSeries{wall, alloc}
	return c
}
