package faasflow

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// This file is the one run entry point: a Load states the traffic (closed
// or open loop, arrival process, per-invocation options, admission) and
// App.Run drives it against any deployment, federated or not.

// Load describes one batch of invocations sent by App.Run.
type Load struct {
	// N is the number of measured invocations.
	N int
	// Warmup invocations run before the measured ones and are not
	// recorded. A closed loop runs them one after another; an open loop
	// issues them together and drains them before the first arrival.
	Warmup int
	// PerMinute is the open-loop arrival rate, regardless of completions;
	// open-loop latencies clamp at the 60 s deadline. 0 runs a closed loop:
	// each invocation starts when the previous one completes.
	PerMinute float64
	// Poisson draws exponential inter-arrival times from Seed instead of a
	// fixed interval (open loop only).
	Poisson bool
	Seed    uint64
	// Args are the invocation input arguments; switch steps evaluate their
	// branch conditions against them. nil runs every branch.
	Args map[string]any
	// Deadline bounds each invocation end to end (0 = none): queued and
	// in-flight steps cancel once it passes.
	Deadline time.Duration
	// Tenant attributes every invocation to a tenant: container acquisition
	// queues weighted-fair against other tenants, and journal records and
	// invocation events carry the label. "" = untenanted.
	Tenant string
	// Admit passes each measured invocation through the cluster's admission
	// controller (under Tenant's slice when set). Rejected invocations are
	// counted, not retried, and Stats then covers goodput only.
	Admit bool
}

// RunStats extends Stats with per-outcome accounting.
type RunStats struct {
	Stats         // latency of every completion, or of goodput only under Load.Admit
	Offered   int // measured invocations in the load
	Admitted  int // accepted by admission and the engine (or shard router)
	Rejected  int // turned away by admission with ErrOverloaded
	Goodput   int // admitted, completed, neither failed nor deadlined
	Deadlined int // admitted but ran out of deadline
	Failed    int // admitted but failed inside the engine (queue shed)
}

// Run drives the load against the app and returns its statistics.
// Invocations of a federated app route through the shard router; one that
// lands on a shard mid-handoff retries once the window closes (the wait
// counts toward its latency). Run errors when the load is malformed, when
// the router rejects an invocation, or when a federated run cannot finish
// — every member dead, or the batch not draining within the deadline.
func (a *App) Run(l Load) (RunStats, error) {
	if l.N < 0 || l.Warmup < 0 || l.PerMinute < 0 {
		return RunStats{}, fmt.Errorf("faasflow: negative load (N %d, Warmup %d, PerMinute %v)", l.N, l.Warmup, l.PerMinute)
	}
	if l.Poisson && l.PerMinute == 0 {
		return RunStats{}, fmt.Errorf("faasflow: Poisson arrivals need PerMinute > 0")
	}
	env := a.cluster.tb.Env
	rec := &metrics.Recorder{}
	st := RunStats{Offered: l.N}
	settled := 0 // invocations completed, rejected, or refused by the router
	var runErr error
	opts := func() engine.InvokeOptions {
		o := engine.InvokeOptions{Args: l.Args, Tenant: l.Tenant}
		if l.Deadline > 0 {
			o.Deadline = env.Now() + sim.Time(l.Deadline)
		}
		return o
	}
	warm := func(then func()) {
		a.submit(opts(), func(_ time.Duration, _ engine.Result, err error) {
			if err != nil {
				runErr = err
			}
			settled++
			then()
		})
	}
	measure := func(then func()) {
		release := func() {}
		if l.Admit {
			r, err := a.cluster.admit(a.dep.Bench.Name, l.Tenant)
			if err != nil {
				st.Rejected++
				settled++
				then()
				return
			}
			release = r
		}
		a.submit(opts(), func(lat time.Duration, r engine.Result, err error) {
			release()
			settled++
			if err != nil {
				runErr = err
				then()
				return
			}
			st.Admitted++
			switch {
			case r.DeadlineExceeded:
				st.Deadlined++
			case r.Failed:
				st.Failed++
			default:
				st.Goodput++
			}
			if !l.Admit || !r.Failed {
				rec.Add(lat)
			}
			then()
		})
	}

	var err error
	if l.PerMinute == 0 {
		warmLeft, left := l.Warmup, l.N
		var next func()
		next = func() {
			switch {
			case warmLeft > 0:
				warmLeft--
				warm(next)
			case left > 0:
				left--
				measure(next)
			}
		}
		next()
		err = a.drain(&settled, l.Warmup+l.N, 0)
	} else {
		// Without warm-up nothing drains first: arrivals are laid out from
		// the current instant and interleave with already-pending events,
		// such as injected faults.
		if l.Warmup > 0 {
			for i := 0; i < l.Warmup; i++ {
				warm(func() {})
			}
			if err = a.drain(&settled, l.Warmup, 0); err != nil {
				return st, err
			}
		}
		arrivals := harness.Arrivals(l.PerMinute, l.N, l.Poisson, l.Seed)
		for _, at := range arrivals {
			env.Schedule(at, func() { measure(func() {}) })
		}
		var span time.Duration
		if len(arrivals) > 0 {
			span = arrivals[len(arrivals)-1]
		}
		err = a.drain(&settled, l.Warmup+l.N, span)
		rec.Clamp(harness.Timeout)
	}
	st.Stats = statsOf(rec)
	if runErr != nil {
		return st, runErr
	}
	return st, err
}

// submit starts one invocation and calls done when it completes with its
// client-observed latency, or with the router's error. A federated app's
// invocation goes through the shard router and re-submits after the
// handoff window when it lands on a shard mid-handoff.
func (a *App) submit(opts engine.InvokeOptions, done func(time.Duration, engine.Result, error)) {
	if a.fed == nil {
		a.dep.Engine.InvokeOpts(opts, func(r engine.Result) { done(r.Latency(), r, nil) })
		return
	}
	env := a.cluster.tb.Env
	start := env.Now()
	var try func()
	try = func() {
		_, err := a.fed.Invoke(opts, func(r engine.Result) {
			done((env.Now() - start).Duration(), r, nil)
		})
		var he *HandoffError
		switch {
		case errors.As(err, &he):
			env.Schedule(he.RetryAfter, try)
		case err != nil:
			done(0, engine.Result{}, err)
		}
	}
	try()
}

// drain runs the simulation until total invocations have settled. A plain
// app's event queue empties on its own; a federation's renewal and sweep
// timers reschedule forever, so a federated run steps the clock instead,
// giving up span plus one deadline per invocation plus a minute after
// the start.
func (a *App) drain(settled *int, total int, span time.Duration) error {
	env := a.cluster.tb.Env
	if a.fed == nil {
		env.Run()
		return nil
	}
	deadline := env.Now() + sim.Time(span+time.Duration(total)*harness.Timeout+time.Minute)
	for *settled < total && env.Now() < deadline {
		env.RunUntil(env.Now() + sim.Time(100*time.Millisecond))
	}
	if *settled < total {
		return fmt.Errorf("faasflow: federated run stalled: %d/%d invocations completed", *settled, total)
	}
	return nil
}
