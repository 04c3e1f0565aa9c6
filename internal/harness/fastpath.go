package harness

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// This file drives the data-plane fast-path scenario: the Genome fan-out
// benchmark under each scheduling mode, once per feature variant —
//
//	off      — the plain store-hop data plane (baseline)
//	direct   — direct producer→consumer passing over the fabric
//	prewarm  — DAG-lookahead container pre-warming
//	full     — direct + prewarm + output memoization
//
// The cluster is configured cold-start-heavy (keep-alive shorter than the
// workflow makespan, cold start longer than any stage) so pre-warm has
// latency to hide; direct passing and memoization gain regardless.

const (
	fastPathWidth       = 10 // Genome task-node count
	fastPathInvocations = 10 // closed-loop invocations per variant
)

// Fast-path variant names.
const (
	variantOff     = "off"
	variantDirect  = "direct"
	variantPrewarm = "prewarm"
	variantFull    = "full"
)

// fastPathVariants is the sweep order.
var fastPathVariants = []string{variantOff, variantDirect, variantPrewarm, variantFull}

func variantOptions(variant string) engine.FastPathOptions {
	switch variant {
	case variantDirect:
		return engine.FastPathOptions{DirectPassing: true}
	case variantPrewarm:
		return engine.FastPathOptions{Prewarm: true}
	case variantFull:
		return engine.FastPathOptions{DirectPassing: true, Prewarm: true, Memoize: true}
	default:
		return engine.FastPathOptions{}
	}
}

// fastPathRow is one mode × variant measurement.
type fastPathRow struct {
	mode        engine.Mode
	variant     string
	invocations int
	mean, p99   time.Duration
	stats       engine.FastPathStats
	snapshot    *obs.Snapshot
}

func fastPathReport(int) (Report, error) {
	rows, err := sweep(fastPathVariants, fastPathOne)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Table: renderFastPath(rows), Gate: checkFastPath(rows)}
	for _, r := range rows {
		rep.addSnapshot(fmt.Sprintf("fastpath-%s-%s", r.mode, r.variant), r.snapshot)
	}
	return rep, nil
}

func fastPathOne(mode engine.Mode, variant string) (fastPathRow, error) {
	cfg := cluster.DefaultConfig()
	cfg.KeepAlive = 100 * time.Millisecond
	cfg.ColdStart = 2 * time.Second
	tb := NewTestbed(ClusterSpec{FaaStore: true, Cluster: cfg})
	_, log := recordedBus(tb)

	bench := workloads.Genome(fastPathWidth)
	opts := engine.Options{
		Mode:     mode,
		Data:     engine.DataStore,
		FastPath: variantOptions(variant),
	}
	d, err := tb.Deploy(bench, opts)
	if err != nil {
		return fastPathRow{}, fmt.Errorf("harness: fastpath deploy %s/%s: %w", mode, variant, err)
	}
	rec := ClosedLoop(tb.Env, d.Engine, 1, fastPathInvocations)

	return fastPathRow{
		mode:        mode,
		variant:     variant,
		invocations: rec.Count(),
		mean:        rec.Mean(),
		p99:         rec.P99(),
		stats:       d.Engine.FastPathStatsSnapshot(),
		snapshot: obs.BuildSnapshot(log, map[string]string{
			"scenario": "fastpath-" + variant,
			"bench":    bench.Name,
			"mode":     mode.String(),
		}),
	}, nil
}

// checkFastPath enforces the fast-path gates:
//
//	direct  — pushes happened and the mean beat the baseline;
//	prewarm — slots were issued and claimed, and the mean beat the
//	          baseline (the cold-start-heavy config guarantees overlap);
//	full    — repeated invocations hit the memo cache and the mean beat
//	          every other variant of its mode.
func checkFastPath(rows []fastPathRow) error {
	byMode := map[engine.Mode]map[string]fastPathRow{}
	for _, r := range rows {
		if byMode[r.mode] == nil {
			byMode[r.mode] = map[string]fastPathRow{}
		}
		byMode[r.mode][r.variant] = r
	}
	for _, r := range rows {
		where := fmt.Sprintf("fastpath %s/%s", r.mode, r.variant)
		if _, ok := byMode[r.mode][variantOff]; !ok {
			return fmt.Errorf("%s: no baseline row for mode", where)
		}
		rivals := []string{variantOff}
		switch r.variant {
		case variantDirect:
			if r.stats.DirectPushes == 0 {
				return fmt.Errorf("%s: no direct pushes", where)
			}
		case variantPrewarm:
			if r.stats.PrewarmIssued == 0 || r.stats.PrewarmHits == 0 {
				return fmt.Errorf("%s: prewarm issued=%d hits=%d", where,
					r.stats.PrewarmIssued, r.stats.PrewarmHits)
			}
		case variantFull:
			if r.stats.MemoHits == 0 {
				return fmt.Errorf("%s: no memo hits across repeated invocations", where)
			}
			rivals = []string{variantOff, variantDirect, variantPrewarm}
		default:
			continue
		}
		for _, v := range rivals {
			if rival, ok := byMode[r.mode][v]; ok && r.mean >= rival.mean {
				return fmt.Errorf("%s: mean %v did not beat %s %v", where, r.mean, v, rival.mean)
			}
		}
	}
	return nil
}

func renderFastPath(rows []fastPathRow) *metrics.Table {
	t := metrics.NewTable("mode", "variant", "n",
		"pushes", "fallbacks", "prewarm", "claims", "memo hits",
		"mean", "p99")
	for _, r := range rows {
		t.AddRow(r.mode.String(), r.variant, fmt.Sprintf("%d", r.invocations),
			fmt.Sprintf("%d", r.stats.DirectPushes),
			fmt.Sprintf("%d", r.stats.DirectFallbacks),
			fmt.Sprintf("%d", r.stats.PrewarmIssued),
			fmt.Sprintf("%d", r.stats.PrewarmHits),
			fmt.Sprintf("%d", r.stats.MemoHits),
			metrics.Millis(r.mean), metrics.Millis(r.p99))
	}
	return t
}
