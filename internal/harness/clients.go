package harness

import (
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Timeout is the paper's execution deadline: invocations that do not finish
// within a minute are recorded as 60 s (§5.1).
const Timeout = 60 * time.Second

// ClosedLoop sends n invocations one at a time — the next starts only when
// the previous one's execution state has been received (§2.3) — and
// records each end-to-end latency. warmup invocations run first without
// being recorded, absorbing cold starts exactly like the paper's
// measurement methodology. The environment is run to completion.
func ClosedLoop(env *sim.Env, d *engine.Deployment, warmup, n int) *metrics.Recorder {
	rec := &metrics.Recorder{}
	remainingWarm, remaining := warmup, n
	var next func()
	next = func() {
		if remainingWarm > 0 {
			remainingWarm--
			d.Invoke(func(engine.Result) { next() })
			return
		}
		if remaining == 0 {
			return
		}
		remaining--
		d.Invoke(func(r engine.Result) {
			rec.Add(r.Latency())
			next()
		})
	}
	next()
	env.Run()
	return rec
}

// OpenLoop sends n invocations at a fixed rate (invocations per minute)
// regardless of completions — the §5.4 methodology that exposes queueing
// and cold-start effects — and records latencies clamped at Timeout.
func OpenLoop(env *sim.Env, d *engine.Deployment, perMinute float64, warmup, n int) *metrics.Recorder {
	return openLoop(env, d, warmup, Arrivals(perMinute, n, false, 0))
}

// OpenLoopPoisson is OpenLoop with exponentially distributed inter-arrival
// times (a Poisson process) instead of a fixed interval — the arrival
// model of real tenant traffic. Deterministic given the seed.
func OpenLoopPoisson(env *sim.Env, d *engine.Deployment, perMinute float64, warmup, n int, seed uint64) *metrics.Recorder {
	return openLoop(env, d, warmup, Arrivals(perMinute, n, true, seed))
}

// Arrivals lays out n open-loop arrival offsets at perMinute: a fixed
// interval, or — with poisson — exponential inter-arrival times drawn
// deterministically from seed.
func Arrivals(perMinute float64, n int, poisson bool, seed uint64) []time.Duration {
	out := make([]time.Duration, n)
	if !poisson {
		interval := time.Duration(60 / perMinute * float64(time.Second))
		for i := range out {
			out[i] = time.Duration(i) * interval
		}
		return out
	}
	rng := sim.NewRand(seed ^ 0x9e3779b97f4a7c15)
	mean := 60 / perMinute // seconds between arrivals
	at := 0.0
	for i := range out {
		at += rng.ExpFloat64() * mean
		out[i] = time.Duration(at * float64(time.Second))
	}
	return out
}

func openLoop(env *sim.Env, d *engine.Deployment, warmup int, arrivals []time.Duration) *metrics.Recorder {
	rec := &metrics.Recorder{}
	// Warm containers with a single closed-loop pass first.
	for i := 0; i < warmup; i++ {
		d.Invoke(nil)
	}
	env.Run()
	for _, at := range arrivals {
		env.Schedule(at, func() {
			d.Invoke(func(r engine.Result) {
				rec.Add(r.Latency())
			})
		})
	}
	env.Run()
	rec.Clamp(Timeout)
	return rec
}

// CoRun drives one closed-loop client per deployment simultaneously
// (§5.5's co-location methodology), n recorded invocations each after
// warmup, and returns one recorder per deployment in input order.
func CoRun(env *sim.Env, ds []*engine.Deployment, warmup, n int) []*metrics.Recorder {
	recs := make([]*metrics.Recorder, len(ds))
	for i, d := range ds {
		rec := &metrics.Recorder{}
		recs[i] = rec
		d := d
		remainingWarm, remaining := warmup, n
		var next func()
		next = func() {
			if remainingWarm > 0 {
				remainingWarm--
				d.Invoke(func(engine.Result) { next() })
				return
			}
			if remaining == 0 {
				return
			}
			remaining--
			d.Invoke(func(r engine.Result) {
				rec.Add(r.Latency())
				next()
			})
		}
		next()
	}
	env.Run()
	return recs
}
