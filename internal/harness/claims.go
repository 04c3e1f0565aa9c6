package harness

// This file computes the paper's headline derived claims from raw
// experiment rows, so EXPERIMENTS.md and the CLI report them the same way
// the paper does:
//
//   - "FaaSFlow reduces the scheduling overhead by 74.6% on average" (§1)
//   - "network bandwidth utilization can be increased by 1.5X-4X" (§5.4)
//   - "the benchmarks with HyperFlow-serverless suffer from 32.5%
//     throughput degradation ... the degradation of FaaSFlow-FaaStore is
//     smaller than 9.5%" (§5.4)

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// overheadReduction computes the paper's §5.2 headline: the average
// fractional cut in scheduling overhead from baseline to target across the
// scientific and application groups.
func overheadReduction(rows []overheadRow, baseline, target System) float64 {
	bSci, bApp := overheadAverages(rows, baseline)
	tSci, tApp := overheadAverages(rows, target)
	den := bSci.Seconds() + bApp.Seconds()
	if den == 0 {
		return 0
	}
	return 1 - (tSci.Seconds()+tApp.Seconds())/den
}

// bandwidthMultiplier computes the §5.4 utilization claim for one
// benchmark: the ratio between the cheapest baseline bandwidth whose p99
// matches the target system at its lowest measured bandwidth. A value of
// 4 means the target at 25 MB/s performs like the baseline at 100 MB/s.
// rows must contain a bandwidth sweep at a single arrival rate for both
// systems. Returns an error when the baseline never catches up.
func bandwidthMultiplier(rows []tailRow, bench string, baseline, target System) (float64, error) {
	type point struct {
		bw  float64
		p99 time.Duration
	}
	var base, tgt []point
	for _, r := range rows {
		if r.Bench != bench {
			continue
		}
		p := point{bw: r.StorageMB, p99: r.P99}
		switch r.Sys {
		case baseline:
			base = append(base, p)
		case target:
			tgt = append(tgt, p)
		}
	}
	if len(base) == 0 || len(tgt) == 0 {
		return 0, fmt.Errorf("harness: no sweep rows for %s", bench)
	}
	// Target at its lowest bandwidth.
	lo := tgt[0]
	for _, p := range tgt[1:] {
		if p.bw < lo.bw {
			lo = p
		}
	}
	// Cheapest baseline bandwidth that matches or beats it (small epsilon
	// for sim tie-breaking).
	best := 0.0
	for _, p := range base {
		if p.p99 <= lo.p99+lo.p99/20 {
			if best == 0 || p.bw < best {
				best = p.bw
			}
		}
	}
	if best == 0 {
		// The baseline never matches the target even at its highest
		// bandwidth — the multiplier exceeds the sweep's range.
		maxBW := base[0].bw
		for _, p := range base[1:] {
			if p.bw > maxBW {
				maxBW = p.bw
			}
		}
		return maxBW / lo.bw, fmt.Errorf("harness: %s baseline never matches target; multiplier > %.1fx", bench, maxBW/lo.bw)
	}
	return best / lo.bw, nil
}

// throughputDegradation computes the §5.4 robustness claim for one system
// and benchmark: the fractional p99 increase when the storage bandwidth
// drops from the sweep's maximum to its minimum.
func throughputDegradation(rows []tailRow, bench string, sys System) (float64, error) {
	var minBW, maxBW float64
	var atMin, atMax time.Duration
	found := false
	for _, r := range rows {
		if r.Bench != bench || r.Sys != sys {
			continue
		}
		if !found || r.StorageMB < minBW {
			minBW, atMin = r.StorageMB, r.P99
		}
		if !found || r.StorageMB > maxBW {
			maxBW, atMax = r.StorageMB, r.P99
		}
		found = true
	}
	if !found {
		return 0, fmt.Errorf("harness: no rows for %s/%s", bench, sys)
	}
	if atMax == 0 {
		return 0, fmt.Errorf("harness: zero p99 at max bandwidth for %s/%s", bench, sys)
	}
	return float64(atMin-atMax) / float64(atMax), nil
}

func claimsReport(n int) (Report, error) {
	ovRows, err := schedulingOverhead([]System{HyperFlow, FaaSFlow}, scaled(n, 20, 5))
	if err != nil {
		return Report{}, err
	}
	var rep Report
	rep.Notes = append(rep.Notes, fmt.Sprintf("scheduling-overhead reduction: %s (paper: 74.6%%)",
		metrics.Pct(overheadReduction(ovRows, HyperFlow, FaaSFlow))))
	sweep, err := tailLatency([]string{"Gen", "Vid"}, tailSystems,
		[]float64{25, 50, 75, 100}, []float64{6}, scaled(n, 4, 1))
	if err != nil {
		return Report{}, err
	}
	for _, bench := range []string{"Gen", "Vid"} {
		// An error means the baseline never caught up: m is then the
		// sweep's range, a lower bound on the multiplier.
		m, merr := bandwidthMultiplier(sweep, bench, HyperFlow, FaaSFlowFaaStore)
		suffix := ""
		if merr != nil {
			suffix = " (lower bound; baseline never caught up in the sweep)"
		}
		dH, _ := throughputDegradation(sweep, bench, HyperFlow)
		dF, _ := throughputDegradation(sweep, bench, FaaSFlowFaaStore)
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("%s bandwidth-utilization multiplier: %.1fx%s (paper: 1.5x-4x)", bench, m, suffix),
			fmt.Sprintf("%s p99 degradation when throttled 100->25 MB/s: HyperFlow %s vs FaaSFlow-FaaStore %s (paper: 32.5%% vs <9.5%%)",
				bench, metrics.Pct(dH), metrics.Pct(dF)))
		switch {
		case rep.Gate != nil: // keep the first failure
		case m < 1.5:
			rep.Gate = fmt.Errorf("claims %s: bandwidth multiplier %.1fx is below 1.5x", bench, m)
		case dF >= dH:
			rep.Gate = fmt.Errorf("claims %s: FaaSFlow-FaaStore degrades %s, not less than HyperFlow's %s", bench, metrics.Pct(dF), metrics.Pct(dH))
		}
	}
	return rep, nil
}
