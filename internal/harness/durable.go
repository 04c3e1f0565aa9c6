package harness

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workloads"
)

// This file drives the durable-execution scenario pair:
//
//   - engine-kill: crash the workflow engine mid-run (journal tears, every
//     in-flight invocation orphans), restart it after a window, and require
//     that replay completes everything with zero lost invocations and zero
//     re-execution of committed steps (journal DupDrops == 0).
//   - node-kill: with 2-way replication, kill the busiest worker and
//     require that consumers of its committed outputs recover by *fetching*
//     a surviving replica (ReplicaReads > 0) instead of re-executing
//     producers (Reexecs == 0, LostInputs == 0).

// Durable scenario names.
const (
	engineKill = "engine-kill"
	nodeKill   = "node-kill"
)

// durableScenarios is the sweep order.
var durableScenarios = []string{engineKill, nodeKill}

const (
	durableReplication = 2                     // node-kill replication factor
	durableRepairDelay = 50 * time.Millisecond // re-replication delay
)

// durableRow is one mode × scenario durability measurement.
type durableRow struct {
	mode     engine.Mode
	scenario string // engineKill or nodeKill
	tally
	durable  engine.DurableStats
	repl     store.ReplStats
	snapshot *obs.Snapshot
}

func durableReport(int) (Report, error) {
	rows, err := sweep(durableScenarios, durableOne)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Table: renderDurable(rows), Gate: checkDurable(rows)}
	for _, r := range rows {
		rep.addSnapshot(fmt.Sprintf("durable-%s-%s", r.mode, r.scenario), r.snapshot)
	}
	return rep, nil
}

func durableOne(mode engine.Mode, scenario string) (durableRow, error) {
	tb := NewTestbed(ClusterSpec{FaaStore: true})
	bus, log := recordedBus(tb)
	d, err := tb.Deploy(workloads.ByName(scenarioBench),
		recoveryOptions(mode, journal.New(tb.Env, journal.Config{})))
	if err != nil {
		return durableRow{}, fmt.Errorf("harness: durable deploy %s/%s: %w", scenarioBench, mode, err)
	}

	inj := faults.NewInjector(tb.Env, tb.Runtime.Nodes, tb.Fabric, tb.Runtime.Store, bus)
	var fault faults.Fault
	switch scenario {
	case engineKill:
		inj.AttachEngines(d.Engine)
		fault = faults.Fault{Kind: faults.EngineDown, At: faultKillAt, Duration: faultDownFor}
	case nodeKill:
		// k-way replicated FaaStore: sibling shards need quota headroom to
		// hold the extra copies, which per-deployment reclamation does not
		// grant on workers without placed tasks.
		tb.Runtime.Store.SetReplication(durableReplication, durableRepairDelay)
		tb.Runtime.Store.SetAlive(func(n string) bool {
			node := tb.Runtime.Nodes[n]
			return node == nil || !node.Failed()
		})
		for _, w := range tb.Workers {
			mem := tb.Mems[w]
			mem.SetQuota(mem.Quota() + 512<<20)
		}
		// Keep fault re-placement off nodes inside scheduled kill windows.
		d.Engine.SetAvoid(func(w string) bool {
			return inj.NodeDownAt(w, tb.Env.Now())
		})
		fault = faults.Fault{Kind: faults.NodeDown, Node: chaosVictim(d.Placement.Worker, tb.Workers),
			At: faultKillAt, Duration: faultDownFor}
	default:
		return durableRow{}, fmt.Errorf("harness: unknown durable scenario %q", scenario)
	}
	if err := inj.Install(faults.Schedule{fault}); err != nil {
		return durableRow{}, err
	}

	t := tally{invocations: faultInvocations}
	stagger(tb.Env, 0, faultInterval, faultInvocations, func() { d.Engine.Invoke(t.done) })
	tb.Env.Run()

	return durableRow{
		mode:     mode,
		scenario: scenario,
		tally:    t,
		durable:  d.Engine.DurableStatsSnapshot(),
		repl:     tb.Runtime.Store.ReplStats(),
		snapshot: obs.BuildSnapshot(log, map[string]string{
			"scenario": "durable-" + scenario,
			"bench":    scenarioBench,
			"mode":     mode.String(),
		}),
	}, nil
}

// checkDurable enforces the durability gates:
//
//	every row       — zero lost invocations;
//	engine-kill     — the crash happened, replay skipped committed steps,
//	                  and no committed step re-executed (DupDrops == 0);
//	node-kill       — consumers recovered via replica reads, with zero
//	                  producer re-executions and zero lost inputs.
func checkDurable(rows []durableRow) error {
	for _, r := range rows {
		where := fmt.Sprintf("durable %s/%s", r.mode, r.scenario)
		if r.lost() > 0 {
			return fmt.Errorf("%s: lost %d of %d invocations", where, r.lost(), r.invocations)
		}
		switch r.scenario {
		case engineKill:
			if r.durable.EngineCrashes == 0 {
				return fmt.Errorf("%s: engine never crashed", where)
			}
			if r.durable.ReplaySkips == 0 {
				return fmt.Errorf("%s: replay skipped no committed steps", where)
			}
			if r.durable.Journal.DupDrops != 0 {
				return fmt.Errorf("%s: %d committed steps re-executed", where, r.durable.Journal.DupDrops)
			}
		case nodeKill:
			if r.repl.ReplicaReads == 0 {
				return fmt.Errorf("%s: no replica reads after the node kill", where)
			}
			if r.durable.Reexecs != 0 || r.durable.LostInputs != 0 {
				return fmt.Errorf("%s: %d producer re-executions / %d lost inputs; replicas should have absorbed the kill",
					where, r.durable.Reexecs, r.durable.LostInputs)
			}
		}
	}
	return nil
}

func renderDurable(rows []durableRow) *metrics.Table {
	t := metrics.NewTable("mode", "scenario", "done", "lost", "failed",
		"crashes", "replayed", "redisp", "dups", "repl reads", "re-repl", "reexecs",
		"mean", "p99")
	for _, r := range rows {
		t.AddRow(r.mode.String(), r.scenario,
			fmt.Sprintf("%d/%d", r.completed, r.invocations),
			fmt.Sprintf("%d", r.lost()), fmt.Sprintf("%d", r.failed),
			fmt.Sprintf("%d", r.durable.EngineCrashes),
			fmt.Sprintf("%d", r.durable.ReplaySkips),
			fmt.Sprintf("%d", r.durable.Redispatched),
			fmt.Sprintf("%d", r.durable.Journal.DupDrops),
			fmt.Sprintf("%d", r.repl.ReplicaReads),
			fmt.Sprintf("%d", r.repl.ReReplications),
			fmt.Sprintf("%d", r.durable.Reexecs),
			metrics.Millis(r.rec.Mean()), metrics.Millis(r.rec.P99()))
	}
	return t
}
