package sim_test

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// BenchmarkEventKernel exercises the discrete-event kernel's
// push/pop/advance cycle at a steady heap depth of 1024 pending events —
// the shape of a saturated multi-workflow run. Each op is one Schedule
// plus one Step.
func BenchmarkEventKernel(b *testing.B) {
	env := sim.NewEnv()
	fn := func() {}
	const depth = 1024
	for i := 0; i < depth; i++ {
		env.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Schedule(depth*time.Microsecond, fn)
		env.Step()
	}
}

// BenchmarkEventCancel measures the cancel-heavy path: timeout guards
// schedule an event per task and cancel nearly all of them, so the
// kernel's discard of canceled entries is on the hot path too.
func BenchmarkEventCancel(b *testing.B) {
	env := sim.NewEnv()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		guard := env.Schedule(time.Millisecond, fn)
		env.Schedule(time.Microsecond, fn)
		guard.Cancel()
		env.Step()
	}
}
