package engine

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/obs"
)

// These tests cover the executor phase spans the engine traces (trace.go)
// as they reach an obs.Bus subscriber and the Chrome trace built from it.

// recordPhases attaches a bus to d that collects every executor phase span
// in publish order.
func recordPhases(d *Deployment) *[]obs.PhaseEvent {
	var out []obs.PhaseEvent
	bus := obs.NewBus()
	bus.Subscribe(func(ev obs.Event) {
		if pe, ok := ev.(obs.PhaseEvent); ok {
			out = append(out, pe)
		}
	})
	d.SetObserver(bus)
	return &out
}

func TestTracerRecordsAllPhases(t *testing.T) {
	rt := rig(2, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeRoundRobin(b, "w0", "w1"), Options{Mode: ModeWorkerSP, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	evs := recordPhases(d)
	run(t, rt, d)
	// 4 tasks x 4 phases.
	if len(*evs) != 16 {
		t.Fatalf("events = %d, want 16", len(*evs))
	}
	phases := map[obs.Component]int{}
	for _, e := range *evs {
		phases[e.Comp]++
		if e.End < e.Start {
			t.Fatalf("negative span: %+v", e)
		}
		if e.Worker != "w0" && e.Worker != "w1" {
			t.Fatalf("unknown worker %q", e.Worker)
		}
	}
	for _, p := range []obs.Component{obs.CompAcquire, obs.CompFetch, obs.CompExec, obs.CompStore} {
		if phases[p] != 4 {
			t.Fatalf("phase %s count = %d, want 4", p, phases[p])
		}
	}
}

func TestTracerEventsOrdered(t *testing.T) {
	rt := rig(1, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeAll(b, "w0"), Options{Mode: ModeWorkerSP, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	rec := recordPhases(d)
	run(t, rt, d)
	evs := *rec
	// Spans publish as they end, so the stream is ordered by end time.
	for i := 1; i < len(evs); i++ {
		if evs[i].End < evs[i-1].End {
			t.Fatal("phase spans not published in end-time order")
		}
	}
	// Source task "a" phases must run in order acquire->fetch->exec->store.
	var aPhases []obs.Component
	for _, e := range evs {
		if e.Name == "a" {
			aPhases = append(aPhases, e.Comp)
		}
	}
	want := []obs.Component{obs.CompAcquire, obs.CompFetch, obs.CompExec, obs.CompStore}
	if len(aPhases) != 4 {
		t.Fatalf("a phases = %v", aPhases)
	}
	for i := range want {
		if aPhases[i] != want[i] {
			t.Fatalf("a phases = %v, want %v", aPhases, want)
		}
	}
}

// chromeRun runs miniBench once under mode with a trace log attached and
// returns the parsed Chrome trace.
func chromeRun(t *testing.T, mode Mode) []map[string]any {
	t.Helper()
	log, _ := observe(t, mode, Options{Data: DataStore})
	data, err := obs.ChromeTrace(log)
	if err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	return parsed
}

func TestTracerChromeJSON(t *testing.T) {
	spans := 0
	for _, ev := range chromeRun(t, ModeMasterSP) {
		// Worker tracks carry the phase spans plus counter samples.
		if pid := ev["pid"]; (pid != "w0" && pid != "w1") || ev["ph"] == "C" {
			continue
		}
		spans++
		for _, key := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
		if ev["ph"] != "X" {
			t.Fatalf("ph = %v, want X", ev["ph"])
		}
	}
	// 4 tasks x 4 phases, one span each on the worker tracks.
	if spans != 16 {
		t.Fatalf("worker phase spans = %d, want 16", spans)
	}
}

func TestTracerForeachReplicaNames(t *testing.T) {
	rt := rig(1, network.MBps(50))
	b := VideoLike()
	// Mark the middle nodes as foreach width 2 to exercise replica naming.
	for _, n := range b.Graph.Nodes() {
		if strings.HasPrefix(n.Name, "m") {
			b.Graph.SetWidth(n.ID, 2)
			b.Graph.MarkForeach(n.ID)
		}
	}
	d, err := NewDeployment(rt, b, placeAll(b, "w0"), Options{Mode: ModeWorkerSP, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	evs := recordPhases(d)
	run(t, rt, d)
	replicas := map[int]bool{}
	for _, e := range *evs {
		if e.Name == "m0" {
			replicas[e.Replica] = true
		}
	}
	if !replicas[0] || !replicas[1] {
		t.Fatalf("foreach replica spans missing: %v", replicas)
	}
}

func TestNoTracerNoOverhead(t *testing.T) {
	rt := rig(1, network.MBps(50))
	b := miniBench()
	d, err := NewDeployment(rt, b, placeAll(b, "w0"), Options{Mode: ModeWorkerSP, Data: DataStore})
	if err != nil {
		t.Fatal(err)
	}
	// No bus attached: spans are skipped and the run completes as usual.
	res := run(t, rt, d)
	if res.Latency() <= 0 {
		t.Fatal("run without tracing broken")
	}
}

func TestTracerChromeJSONChronological(t *testing.T) {
	prev := -1.0
	for _, ev := range chromeRun(t, ModeWorkerSP) {
		ts := ev["ts"].(float64)
		if ts < prev {
			t.Fatalf("events out of order: ts %v after %v", ts, prev)
		}
		prev = ts
	}
}
