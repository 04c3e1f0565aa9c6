package harness

import (
	"fmt"
	"time"

	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// This file drives the chaos-availability scenario: kill a worker node
// mid-run while invocations are in flight and verify that the engine's
// recovery layer (task timeouts, re-placement, mode-specific re-issue)
// completes every invocation anyway. Seeded arrivals and a scheduled fault
// window keep the run deterministic.

// Fault-scenario sizes, shared by chaos and durable: the arrival window
// is long enough that a kill halfway through it strands in-flight work.
const (
	faultInvocations = 20
	faultInterval    = 400 * time.Millisecond
	faultDownFor     = 5 * time.Second
	faultKillAt      = faultInterval * faultInvocations / 2
)

// chaosRow is one mode's chaos-availability measurement.
type chaosRow struct {
	mode   engine.Mode
	victim string // worker killed mid-run
	tally
	stats engine.FailureStats
	// durable carries journal/replay counters when an engine crash was
	// armed (zero-valued otherwise).
	durable  engine.DurableStats
	snapshot *obs.Snapshot
}

func chaosReport(int) (Report, error) {
	// The registered run kills only the node: no engine crash.
	rows, err := sweep([]time.Duration{0}, chaosOne)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Table: renderChaos(rows), Gate: checkChaos(rows)}
	for _, r := range rows {
		rep.addSnapshot("chaos-"+r.mode.String(), r.snapshot)
	}
	return rep, nil
}

// chaosOne deploys the benchmark with recovery enabled, starts staggered
// invocations, kills the worker hosting the most placed tasks halfway
// through the arrival window, recovers it after faultDownFor, and runs the
// simulation dry. engineKillAt > 0 additionally crashes the engine at that
// offset: a journal is attached and the engine recovers by replay after
// faultDownFor.
func chaosOne(mode engine.Mode, engineKillAt time.Duration) (chaosRow, error) {
	tb := NewTestbed(ClusterSpec{FaaStore: true})
	bus, log := recordedBus(tb)
	var jr *journal.WAL
	if engineKillAt > 0 {
		jr = journal.New(tb.Env, journal.Config{})
	}
	d, err := tb.Deploy(workloads.ByName(scenarioBench), recoveryOptions(mode, jr))
	if err != nil {
		return chaosRow{}, fmt.Errorf("harness: chaos deploy %s/%s: %w", scenarioBench, mode, err)
	}

	victim := chaosVictim(d.Placement.Worker, tb.Workers)
	inj := faults.NewInjector(tb.Env, tb.Runtime.Nodes, tb.Fabric, tb.Runtime.Store, bus)
	schedule := faults.Schedule{{
		Kind:     faults.NodeDown,
		Node:     victim,
		At:       faultKillAt,
		Duration: faultDownFor,
	}}
	if engineKillAt > 0 {
		inj.AttachEngines(d.Engine)
		schedule = append(schedule, faults.Fault{
			Kind: faults.EngineDown, At: engineKillAt, Duration: faultDownFor,
		})
	}
	if err := inj.Install(schedule); err != nil {
		return chaosRow{}, err
	}

	t := tally{invocations: faultInvocations}
	stagger(tb.Env, 0, faultInterval, faultInvocations, func() { d.Engine.Invoke(t.done) })
	tb.Env.Run()

	return chaosRow{
		mode:    mode,
		victim:  victim,
		tally:   t,
		stats:   d.Engine.FailureStatsSnapshot(),
		durable: d.Engine.DurableStatsSnapshot(),
		snapshot: obs.BuildSnapshot(log, map[string]string{
			"scenario": "chaos",
			"bench":    scenarioBench,
			"mode":     mode.String(),
		}),
	}, nil
}

// chaosVictim picks the worker hosting the most placed tasks — the node
// whose death strands the most work. Ties break on the testbed's worker
// order, keeping the choice deterministic.
func chaosVictim(place map[dag.NodeID]string, workers []string) string {
	counts := map[string]int{}
	for _, w := range place {
		counts[w]++
	}
	best, bestCount := "", -1
	for _, w := range workers {
		if counts[w] > bestCount {
			best, bestCount = w, counts[w]
		}
	}
	return best
}

// checkChaos is the availability gate: per mode, every invocation
// completed without exhausting its recovery budget, and the node death
// was actually absorbed by re-placement and re-issue, not luck.
func checkChaos(rows []chaosRow) error {
	for _, r := range rows {
		switch {
		case r.lost() != 0:
			return fmt.Errorf("chaos %s: lost %d of %d invocations", r.mode, r.lost(), r.invocations)
		case r.failed != 0:
			return fmt.Errorf("chaos %s: %d invocations exhausted their recovery budget", r.mode, r.failed)
		case r.stats.Replacements == 0:
			return fmt.Errorf("chaos %s: node death re-placed no tasks", r.mode)
		case r.stats.Reissues == 0:
			return fmt.Errorf("chaos %s: node death re-issued no executors", r.mode)
		}
	}
	return nil
}

func renderChaos(rows []chaosRow) *metrics.Table {
	t := metrics.NewTable("mode", "victim", "kill at", "down for", "done", "lost",
		"failed", "reissues", "replaced", "timeouts", "mean", "p99")
	for _, r := range rows {
		t.AddRow(r.mode.String(), r.victim,
			metrics.Seconds(faultKillAt), metrics.Seconds(faultDownFor),
			fmt.Sprintf("%d/%d", r.completed, r.invocations),
			fmt.Sprintf("%d", r.lost()), fmt.Sprintf("%d", r.failed),
			fmt.Sprintf("%d", r.stats.Reissues), fmt.Sprintf("%d", r.stats.Replacements),
			fmt.Sprintf("%d", r.stats.Timeouts),
			metrics.Millis(r.rec.Mean()), metrics.Millis(r.rec.P99()))
	}
	return t
}
