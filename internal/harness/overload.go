package harness

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// This file drives the overload-control scenario: an open-loop arrival
// stream swept past the cluster's saturation point. With the controls on —
// front-door admission (token bucket + concurrency cap), bounded Acquire
// queues, per-invocation deadlines, and the store circuit breaker armed —
// goodput must flat-top at saturation instead of collapsing: capacity is
// spent only on work that finishes. The counterfactual sweep removes the
// front door and lets every arrival in; partially-executed invocations
// then burn containers before being shed or deadlined, and goodput at 2x
// offered load must fall off the peak, or the gate could not tell control
// from none.

// Overload sizes; the tenancy scenario shares the deadline, queue bound
// and probe.
const (
	overloadWindow     = 20 * time.Second // arrival window per rate point
	overloadDeadline   = 8 * time.Second  // each invocation's end-to-end budget
	overloadQueueDepth = 8                // bound on each per-function Acquire queue
	// overloadProbe is the closed-loop client count of the saturation
	// probe; the admission concurrency cap is derived from it.
	overloadProbe = 8
	// overloadGoodputFrac is the share of peak goodput the highest offered
	// rate must hold.
	overloadGoodputFrac = 0.7
)

// overloadMultipliers are the offered-rate points as fractions of the
// measured saturation rate.
var overloadMultipliers = []float64{0.25, 0.5, 1, 1.5, 2}

// overloadRow is one rate point of the sweep.
type overloadRow struct {
	mode       engine.Mode
	admission  bool    // front-door admission control on
	multiplier float64 // offered rate as a fraction of saturation
	rate       float64 // offered arrivals/sec
	outcome
	shed     int64 // Acquire-queue rejections across nodes
	snapshot *obs.Snapshot
}

func overloadReport(int) (Report, error) {
	on, err := overload(true)
	if err != nil {
		return Report{}, err
	}
	off, err := overload(false)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Table: renderOverload(append(on, off...)), Gate: overloadGate(on, off)}
	for _, r := range on {
		rep.addSnapshot(fmt.Sprintf("overload-%s-x%g", r.mode, r.multiplier), r.snapshot)
	}
	return rep, nil
}

// overloadGate passes when the controlled sweep holds its goodput and the
// sweep without admission collapses: a gate both pass cannot detect
// collapse.
func overloadGate(on, off []overloadRow) error {
	if err := checkOverload(on); err != nil {
		return err
	}
	if checkOverload(off) == nil {
		return errors.New("overload: goodput held without admission control too, so the gate cannot detect collapse")
	}
	return nil
}

// overload runs the sweep once per mode, with or without front-door
// admission. Each rate point runs on a fresh testbed so points are
// independent; the saturation probe runs once per mode and fixes the
// admission rate and every offered rate.
func overload(admit bool) ([]overloadRow, error) {
	var rows []overloadRow
	for _, mode := range scenarioModes {
		sat, err := saturation(mode)
		if err != nil {
			return nil, err
		}
		for _, m := range overloadMultipliers {
			row, err := overloadOne(mode, sat, m, overloadWindow, admit)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func overloadTestbed() *Testbed {
	cfg := cluster.DefaultConfig()
	cfg.MaxQueueDepth = overloadQueueDepth
	return NewTestbed(ClusterSpec{FaaStore: true, Cluster: cfg})
}

func overloadOptions(mode engine.Mode) engine.Options {
	return engine.Options{Mode: mode, Data: engine.DataStore}
}

// saturation measures the cluster's saturation throughput for the
// benchmark under one mode: overloadProbe closed-loop clients drive it
// flat out and the completion rate is the capacity every sweep point is
// sized from.
func saturation(mode engine.Mode) (float64, error) {
	tb := overloadTestbed()
	d, err := tb.Deploy(workloads.ByName(scenarioBench), overloadOptions(mode))
	if err != nil {
		return 0, fmt.Errorf("harness: overload probe deploy %s/%s: %w", scenarioBench, mode, err)
	}
	// Bounded per client. Elapsed time is the last completion instant —
	// not the drained clock, which would include the keep-alive eviction
	// tail and dwarf the measurement.
	const perClient = 8
	total := 0
	var lastDone sim.Time
	for i := 0; i < overloadProbe; i++ {
		remaining := perClient
		var next func()
		next = func() {
			if remaining == 0 {
				return
			}
			remaining--
			d.Engine.Invoke(func(engine.Result) {
				total++
				lastDone = tb.Env.Now()
				next()
			})
		}
		next()
	}
	tb.Env.Run()
	elapsed := lastDone.Seconds()
	if total == 0 || elapsed <= 0 {
		return 0, fmt.Errorf("harness: overload probe measured nothing (%d done in %.2fs)", total, elapsed)
	}
	return float64(total) / elapsed, nil
}

// overloadOne offers satRate*multiplier arrivals/sec for window on a fresh
// testbed with the store breaker armed, through the admission controller
// when admit is set.
func overloadOne(mode engine.Mode, satRate, multiplier float64, window time.Duration, admit bool) (overloadRow, error) {
	bench := workloads.ByName(scenarioBench)
	tb := overloadTestbed()
	bus, log := recordedBus(tb)
	if err := armBreaker(tb, bus); err != nil {
		return overloadRow{}, err
	}
	d, err := tb.Deploy(bench, overloadOptions(mode))
	if err != nil {
		return overloadRow{}, fmt.Errorf("harness: overload deploy %s/%s: %w", scenarioBench, mode, err)
	}

	var ctl *admission.Controller
	if admit {
		// Admit at the measured capacity with headroom for in-flight work:
		// the rate limiter pins sustained admissions to saturation and the
		// concurrency cap bounds how much admitted work can pile up.
		ctl, err = admission.New(tb.Env, admission.Config{
			RatePerSec:    satRate,
			MaxConcurrent: 2 * overloadProbe,
		})
		if err != nil {
			return overloadRow{}, err
		}
		ctl.SetBus(bus)
	}

	row := overloadRow{mode: mode, admission: admit, multiplier: multiplier, rate: satRate * multiplier}
	row.offered = max(int(row.rate*window.Seconds()), 1)
	stagger(tb.Env, 0, time.Duration(float64(time.Second)/row.rate), row.offered, func() {
		if err := ctl.Admit(bench.Name); err != nil {
			row.rejected++
			return
		}
		row.admitted++
		d.Engine.InvokeOpts(engine.InvokeOptions{
			Deadline: tb.Env.Now() + sim.Time(overloadDeadline),
		}, func(r engine.Result) {
			ctl.Release()
			row.resolve(r)
		})
	})
	tb.Env.Run()

	for _, w := range tb.Workers {
		row.shed += tb.Runtime.Nodes[w].Stats().Shed
	}
	row.snapshot = obs.BuildSnapshot(log, map[string]string{
		"scenario":   "overload",
		"bench":      scenarioBench,
		"mode":       mode.String(),
		"multiplier": fmt.Sprintf("%g", multiplier),
		"admission":  fmt.Sprintf("%t", admit),
	})
	return row, nil
}

func renderOverload(rows []overloadRow) *metrics.Table {
	t := metrics.NewTable("mode", "admission", "xsat", "rate/s", "offered", "admitted", "rejected",
		"goodput", "deadlined", "failed", "shed", "p50", "p99")
	for _, r := range rows {
		t.AddRow(r.mode.String(), onOff(r.admission), fmt.Sprintf("%.2f", r.multiplier),
			fmt.Sprintf("%.2f", r.rate),
			fmt.Sprintf("%d", r.offered), fmt.Sprintf("%d", r.admitted),
			fmt.Sprintf("%d", r.rejected), fmt.Sprintf("%d", r.goodput),
			fmt.Sprintf("%d", r.deadlined), fmt.Sprintf("%d", r.failed),
			fmt.Sprintf("%d", r.shed),
			metrics.Millis(r.good.Percentile(0.5)), metrics.Millis(r.good.P99()))
	}
	return t
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// checkOverload is the graceful-degradation gate: per mode, goodput at the
// highest offered rate must hold at least overloadGoodputFrac of the
// sweep's peak goodput. With admission on the curve flat-tops and the gate
// passes; without it the collapse past saturation trips the gate.
func checkOverload(rows []overloadRow) error {
	byMode := map[engine.Mode][]overloadRow{}
	var modes []engine.Mode
	for _, r := range rows {
		if _, ok := byMode[r.mode]; !ok {
			modes = append(modes, r.mode)
		}
		byMode[r.mode] = append(byMode[r.mode], r)
	}
	for _, mode := range modes {
		mrows := byMode[mode]
		peak, last := 0, mrows[len(mrows)-1]
		for _, r := range mrows {
			if r.goodput > peak {
				peak = r.goodput
			}
		}
		if peak == 0 {
			return fmt.Errorf("%s produced zero goodput at every rate", mode)
		}
		if float64(last.goodput) < overloadGoodputFrac*float64(peak) {
			return fmt.Errorf("%s goodput collapsed: %d at %.2fx saturation vs peak %d (gate: >= %.0f%%)",
				mode, last.goodput, last.multiplier, peak, overloadGoodputFrac*100)
		}
	}
	return nil
}
