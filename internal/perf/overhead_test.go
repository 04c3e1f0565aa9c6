package perf

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/engine"
)

// Self-overhead accounting: the observability layer must be close to free
// when nobody is listening. Two gates below — an allocation gate (exact,
// always on) and a timing gate (skipped under -race) — both over the full
// engine-dispatch path, where every obs publish site sits.

// dispatchOnce runs one warmed deployment through a single Genome(10)
// invocation; the returned closure is the unit both gates measure.
func dispatchOnce(t testing.TB, om ObsMode) func() {
	tb, d, err := dispatchBed(engine.ModeWorkerSP, om)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d.Invoke(nil)
		tb.Env.Run()
	}
	return func() {
		d.Invoke(nil)
		tb.Env.Run()
	}
}

// TestDispatchObsIdleAddsNoAllocs asserts that carrying an attached but
// subscriber-less bus adds zero allocations per dispatched invocation
// relative to no bus at all: every publish site must check Active() before
// building its event (boxing a payload into the Event interface is an
// allocation, guard or not).
func TestDispatchObsIdleAddsNoAllocs(t *testing.T) {
	const runs = 30
	off := testing.AllocsPerRun(runs, dispatchOnce(t, ObsOff))
	idle := testing.AllocsPerRun(runs, dispatchOnce(t, ObsIdle))
	if delta := idle - off; delta >= 1 {
		t.Fatalf("obs-idle dispatch allocates %.1f more than obs-off (%.1f vs %.1f) — an unguarded publish site is boxing events nobody reads",
			delta, idle, off)
	}
}

// TestDispatchObsIdleOverheadUnder10Pct asserts the headline self-overhead
// budget: an idle bus may cost at most 10% of engine dispatch time. The
// estimate is the median over interleaved pairs, each timing one obs-off
// and one obs-idle batch back to back (alternating which goes first), so
// host-speed drift and a stray GC or preemption land in a single pair
// rather than in one whole side of the comparison.
func TestDispatchObsIdleOverheadUnder10Pct(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion skipped under -race")
	}
	if testing.Short() {
		t.Skip("timing assertion skipped in -short mode")
	}
	const pairs = 9
	const batch = 40
	off, idle := dispatchOnce(t, ObsOff), dispatchOnce(t, ObsIdle)
	timed := func(once func()) time.Duration {
		runtime.GC()
		start := time.Now()
		for j := 0; j < batch; j++ {
			once()
		}
		return time.Since(start)
	}
	overheads := make([]float64, pairs)
	for i := range overheads {
		var o, d time.Duration
		if i%2 == 0 {
			o = timed(off)
			d = timed(idle)
		} else {
			d = timed(idle)
			o = timed(off)
		}
		if o <= 0 {
			t.Fatalf("obs-off batch measured %v — clock resolution too coarse", o)
		}
		overheads[i] = float64(d-o) / float64(o)
	}
	sort.Float64s(overheads)
	median := overheads[pairs/2]
	t.Logf("dispatch batch overhead over %d pairs: median %.1f%%, range %.1f%%..%.1f%%",
		pairs, median*100, overheads[0]*100, overheads[pairs-1]*100)
	if median > 0.10 {
		t.Fatalf("idle obs bus costs %.1f%% of engine dispatch (median of %d pairs), budget is 10%%", median*100, pairs)
	}
}

// TestDispatchObsOnCompletes pins the collecting configuration: a full
// Collector+LatencyTracker attachment must survive dispatch (its cost is
// tracked in BENCH snapshots, not hard-gated here — collection is opt-in).
func TestDispatchObsOnCompletes(t *testing.T) {
	once := dispatchOnce(t, ObsOn)
	once()
}
