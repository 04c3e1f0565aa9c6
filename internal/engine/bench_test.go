package engine_test

import (
	"testing"

	"repro/internal/engine"
)

// The obs-off/idle/on split is the self-overhead accounting axis: obs-idle
// vs obs-off is the cost of carrying the instrumentation, obs-on vs
// obs-off the cost of collecting it.

func BenchmarkDispatchWorkerSP(b *testing.B) { benchDispatch(b, engine.ModeWorkerSP, obsOff) }

func BenchmarkDispatchMasterSP(b *testing.B) { benchDispatch(b, engine.ModeMasterSP, obsOff) }

func BenchmarkDispatchObsIdle(b *testing.B) { benchDispatch(b, engine.ModeWorkerSP, obsIdle) }

func BenchmarkDispatchObsOn(b *testing.B) { benchDispatch(b, engine.ModeWorkerSP, obsOn) }

// benchDispatch measures end-to-end dispatch of one Genome(10) invocation
// per op — trigger evaluation, container acquisition, store traffic, and
// state propagation under the given scheduling pattern.
func benchDispatch(b *testing.B, mode engine.Mode, om obsMode) {
	tb, d := dispatchBed(b, mode, om)
	// Warm the container pool so ops measure steady-state dispatch.
	for i := 0; i < 3; i++ {
		d.Invoke(nil)
		tb.Env.Run()
	}
	startFired := tb.Env.Fired()
	startSim := tb.Env.Now()
	cb := func(engine.Result) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Invoke(cb)
		tb.Env.Run()
	}
	b.StopTimer()
	b.ReportMetric(float64(tb.Env.Fired()-startFired)/float64(b.N), "events/op")
	if host := b.Elapsed().Seconds(); host > 0 {
		b.ReportMetric(float64(tb.Env.Now()-startSim)/1e9/host, "simsec/sec")
	}
}
