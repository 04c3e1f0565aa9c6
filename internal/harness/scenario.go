package harness

import (
	"time"

	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// This file is the experiment contract. Every paper figure, derived
// claim, ablation and fault, overload and feature scenario is one Scenario
// entry: it renders one table, names its charts and flight-recorder
// snapshots and gates its own acceptance criteria — for a figure, the
// shape claim EXPERIMENTS.md says it reproduces. Every run except Fig 16's
// host-timed columns is on the simulation clock, so two runs of an entry
// produce byte-identical Reports; CI runs the scenarios twice and diffs
// the snapshot directories.

// Scenario is one named, self-gating experiment. Run's n scales a
// figure's invocation counts (the paper uses 1000); the fault, overload
// and feature scenarios run at fixed sizes and ignore it.
type Scenario struct {
	Name  string
	Title string
	Run   func(n int) (Report, error)
}

// Report is the outcome of one Scenario run. Run returns an error only
// when the scenario could not be set up; a run that completed but broke
// an acceptance criterion says so in Gate.
type Report struct {
	// Table is the rendered result; nil for a notes-only report.
	Table *metrics.Table
	// Notes are summary lines that belong under the table.
	Notes []string
	// Charts are the report's figures, each under a file name (without
	// extension) that is unique across all Scenarios.
	Charts []struct {
		Name  string
		Chart chart
	}
	// Snapshots are the run's flight recorders in run order, each under a
	// file name that is unique across all Scenarios.
	Snapshots []struct {
		Name     string
		Snapshot *obs.Snapshot
	}
	Gate error
}

// chart is what viz.BarChart and viz.LineChart have in common.
type chart = interface{ SVG() (string, error) }

// addChart appends c under the file name name.
func (r *Report) addChart(name string, c chart) {
	r.Charts = append(r.Charts, struct {
		Name  string
		Chart chart
	}{name, c})
}

// addSnapshot appends s under the file name <name>.json.
func (r *Report) addSnapshot(name string, s *obs.Snapshot) {
	r.Snapshots = append(r.Snapshots, struct {
		Name     string
		Snapshot *obs.Snapshot
	}{name + ".json", s})
}

// Scenarios lists every experiment in run order: the paper's figures and
// claims first, then the gated scenarios.
var Scenarios = []Scenario{
	{"fig4", "MasterSP scheduling overhead (HyperFlow-serverless)", fig4Report},
	{"fig5", "data movement: monolithic vs FaaS", fig5Report},
	{"fig11", "scheduling overhead: HyperFlow-serverless vs FaaSFlow", fig11Report},
	{"table4", "total data-movement latency over all edges", table4Report},
	{"fig12", "p99 vs bandwidth sweep for Gen and Vid", fig12Report},
	{"fig13", "p99 e2e latency @50MB/s, 6 inv/min", fig13Report},
	{"fig14", "co-location interference", fig14Report},
	{"fig15", "grouping and scheduling distribution", fig15Report},
	{"fig16", "graph scheduler scalability", fig16Report},
	{"sec57", "workflow engine component overhead", sec57Report},
	{"coldstart", "keep-alive vs cold-start trade-off (extension)", coldStartReport},
	{"claims", "the paper's derived headline claims", claimsReport},
	{"ablations", "design-choice ablations: grouping, network model, DAG, quota", ablationsReport},
	{"chaos", "chaos availability: kill a worker mid-run, require zero lost invocations", chaosReport},
	{"overload", "overload control: sweep arrival rate past saturation, require graceful degradation", overloadReport},
	{"durable", "durable execution: engine crash replays the journal, node kill reads replicas", durableReport},
	{"fastpath", "data-plane fast path: direct passing, pre-warm, memoization vs the store-hop baseline", fastPathReport},
	{"federation", "engine federation: rolling member kills fail over by lease expiry and journal handoff", federationReport},
	{"tenants", "multi-tenant isolation: one noisy tenant at 10x fair share, zero starvation required", tenancyReport},
}

// scenarioBench is the benchmark every scenario except fastpath drives.
const scenarioBench = "IR"

// scenarioModes are the scheduling modes every scenario runs, in report
// order.
var scenarioModes = []engine.Mode{engine.ModeWorkerSP, engine.ModeMasterSP}

// sweep runs one measurement per mode × variant, modes outermost.
func sweep[V, R any](variants []V, one func(engine.Mode, V) (R, error)) ([]R, error) {
	var rows []R
	for _, mode := range scenarioModes {
		for _, v := range variants {
			row, err := one(mode, v)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// recordedBus attaches a fresh bus to tb whose trace log records every
// event, for the run's snapshot.
func recordedBus(tb *Testbed) (*obs.Bus, *obs.TraceLog) {
	bus := obs.NewBus()
	log := obs.NewTraceLog()
	bus.Subscribe(log.Record)
	tb.AttachBus(bus)
	return bus, log
}

// recoveryOptions is the fault-tolerant deployment of the fault
// scenarios; jr, when non-nil, makes it durable. The task timeout must
// exceed the longest healthy attempt end to end (acquire queue + cold
// start + fetch + exec + store), or healthy work gets re-issued; it bounds
// how long a stranded task waits before the recovery path kicks in.
func recoveryOptions(mode engine.Mode, jr *journal.WAL) engine.Options {
	return engine.Options{
		Mode:        mode,
		Data:        engine.DataStore,
		Journal:     jr,
		TaskTimeout: 20 * time.Second,
		BackoffBase: 200 * time.Millisecond,
		BackoffMax:  5 * time.Second,
		MaxReissues: 10,
	}
}

// armBreaker installs the store circuit breaker: overload must not be able
// to wedge a run on a browned-out database (no brownout is injected, but
// the armed watchdog is part of the configuration under test).
func armBreaker(tb *Testbed, bus *obs.Bus) error {
	breaker, err := store.NewBreaker(tb.Env, store.BreakerConfig{Timeout: 30 * time.Second})
	if err != nil {
		return err
	}
	breaker.SetBus(bus)
	tb.Runtime.Store.SetBreaker(breaker)
	return nil
}

// stagger schedules n calls of arrive, the k-th at start + k*interval.
func stagger(env *sim.Env, start, interval time.Duration, n int, arrive func()) {
	for k := 0; k < n; k++ {
		env.Schedule(start+time.Duration(k)*interval, arrive)
	}
}

// tally counts one open-loop stream's completions.
type tally struct {
	invocations, completed, failed int
	rec                            metrics.Recorder
}

func (t *tally) done(r engine.Result) {
	t.completed++
	if r.Failed {
		t.failed++
	}
	t.rec.Add(r.Latency())
}

// lost counts invocations that never completed.
func (t *tally) lost() int { return t.invocations - t.completed }

// outcome tallies one admission-controlled open-loop stream: each offered
// arrival is rejected at the front door, or admitted and then resolved as
// goodput, deadlined or failed.
type outcome struct {
	offered, admitted, rejected, goodput, deadlined, failed int
	good                                                    metrics.Recorder // latency of goodput completions
}

func (o *outcome) resolve(r engine.Result) {
	switch {
	case r.DeadlineExceeded:
		o.deadlined++
	case r.Failed:
		o.failed++
	default:
		o.goodput++
		o.good.Add(r.Latency())
	}
}
