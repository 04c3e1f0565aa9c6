package harness

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// coldStartRow is one keep-alive setting's measurement.
type coldStartRow struct {
	KeepAlive    time.Duration
	PerMinute    float64
	ColdFraction float64 // cold starts / all container acquisitions
	MeanLatency  time.Duration
}

// coldStartStudy measures how the container keep-alive window trades
// memory for cold starts — the related-work dimension (§7: prewarm/
// keep-alive policies) that the paper's Table 3 fixes at 600 s. Open-loop
// arrivals at the given rate; short keep-alives let containers expire
// between invocations and every front-of-workflow function pays the cold
// start again.
func coldStartStudy(bench string, keepAlives []time.Duration, perMinute float64, n int) ([]coldStartRow, error) {
	b := workloads.ByName(bench)
	if b == nil {
		return nil, fmt.Errorf("unknown benchmark %q", bench)
	}
	var rows []coldStartRow
	for _, ka := range keepAlives {
		cfg := cluster.DefaultConfig()
		cfg.KeepAlive = ka
		tb := NewTestbed(ClusterSpec{FaaStore: true, Cluster: cfg})
		d, err := tb.Deploy(workloads.ByName(bench), engine.Options{Mode: engine.ModeWorkerSP, Data: engine.DataStore})
		if err != nil {
			return nil, err
		}
		rec := OpenLoop(tb.Env, d.Engine, perMinute, 0, n)
		var colds, warms int64
		for _, id := range tb.Workers {
			st := tb.Runtime.Nodes[id].Stats()
			colds += st.ColdStarts
			warms += st.WarmReuses
		}
		frac := 0.0
		if colds+warms > 0 {
			frac = float64(colds) / float64(colds+warms)
		}
		rows = append(rows, coldStartRow{
			KeepAlive:    ka,
			PerMinute:    perMinute,
			ColdFraction: frac,
			MeanLatency:  rec.Mean(),
		})
	}
	return rows, nil
}

// renderColdStart builds the cold-start study table.
func renderColdStart(rows []coldStartRow) *metrics.Table {
	t := metrics.NewTable("keep-alive", "rate/min", "cold fraction", "mean latency")
	for _, r := range rows {
		t.AddRow(r.KeepAlive.String(), fmt.Sprintf("%.0f", r.PerMinute),
			metrics.Pct(r.ColdFraction), metrics.Seconds(r.MeanLatency))
	}
	return t
}

func coldStartReport(n int) (Report, error) {
	rows, err := coldStartStudy("WC",
		[]time.Duration{5 * time.Second, 30 * time.Second, 120 * time.Second, 600 * time.Second}, 2, scaled(n, 50, 10))
	if err != nil {
		return Report{}, err
	}
	rep := Report{Table: renderColdStart(rows), Notes: []string{
		"extension: the paper fixes keep-alive at 600s (Table 3); short windows re-pay cold starts at low rates",
	}}
	for _, r := range rows[1:] {
		if r.ColdFraction >= rows[0].ColdFraction {
			rep.Gate = fmt.Errorf("coldstart: %v keep-alive is as cold (%s) as %v's %s",
				r.KeepAlive, metrics.Pct(r.ColdFraction), rows[0].KeepAlive, metrics.Pct(rows[0].ColdFraction))
			break
		}
	}
	return rep, nil
}
