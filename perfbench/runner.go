package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// simInputs is how many distinct round inputs the simulated-latency
// metrics and the digest pool. Every run covers at least these.
const simInputs = 6

// phase is a sequence of rounds of one workload, each on a freshly set-up
// system. Round inputs vary, so a run's medians average over several
// inputs; a replayed input must reproduce its digest exactly.
type phase struct {
	w       workload
	rounds  []*roundResult
	digests map[int]string // round input -> digest of its simulated latencies
}

func newPhase(w workload) *phase { return &phase{w: w, digests: map[int]string{}} }

// runPhase runs untraced rounds for about seconds of wall time. Round 1
// replays round 0's input; round i > 1 runs input i-1.
func runPhase(w workload, cfg config, seconds float64) (*phase, error) {
	ph := newPhase(w)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i <= simInputs || time.Now().Before(deadline); i++ {
		rr, err := runRound(w, cfg, max(i-1, 0), nil)
		if err != nil {
			return nil, err
		}
		ph.add(rr)
	}
	return ph, nil
}

// runRound sets up a fresh system for input k and runs its timed round.
// The heap is collected before and after the timed window, so every
// round starts from the same heap state and retained memory can be read.
// With a tracer it records spans and a CPU profile of the timed window.
func runRound(w workload, cfg config, k int, tr *tracer) (*roundResult, error) {
	rr := &roundResult{input: k, counts: counts{}}
	root := tr.begin("round", -1, int64(k))
	defer tr.end(root)
	sp := tr.begin("setup", root, -1)
	t0 := time.Now()
	inst, err := w.setup(cfg, k, tr, sp)
	rr.setupSec = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer inst.close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var prof bytes.Buffer
	if tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	rt0 := readRuntime()
	sp = tr.begin("run", root, -1)
	t1 := time.Now()
	inst.run(rr, tr, sp)
	rr.hostSec = time.Since(t1).Seconds()
	tr.end(sp)
	rr.runtime = readRuntime().minus(rt0)
	if tr != nil {
		pprof.StopCPUProfile()
		rr.profile = prof.Bytes()
	}
	runtime.ReadMemStats(&after)
	rr.allocs = after.Mallocs - before.Mallocs
	rr.allocBytes = after.TotalAlloc - before.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&after)
	// The benchmark's own per-invocation sample buffers are not the
	// program's retention.
	own := 8 * (cap(rr.simLat) + cap(rr.invokeMs) + cap(rr.readMs) + cap(rr.lateMs))
	rr.retained = int64(after.HeapAlloc) - int64(before.HeapAlloc) - int64(own)
	inst.finish(rr, tr)
	return rr, nil
}

// add appends a round. A round that replays an input must reproduce the
// first run of that input exactly.
func (ph *phase) add(rr *roundResult) {
	if len(rr.simLat) != rr.completed {
		rr.check("latency-per-completion", false, "%d latencies for %d completions", len(rr.simLat), rr.completed)
	}
	d := digest(rr.simLat)
	if first, ok := ph.digests[rr.input]; ok {
		rr.check("replay-reproduces-digest", d == first, "input %d digest %s, first %s", rr.input, d, first)
	} else {
		ph.digests[rr.input] = d
	}
	ph.rounds = append(ph.rounds, rr)
}

// fixedRounds is the first run of each of inputs 0..simInputs-1, in
// input order: a set of rounds that depends on the seed alone, never on
// how many rounds the host had time for.
func (ph *phase) fixedRounds() []*roundResult {
	var out []*roundResult
	for k := 0; k < simInputs; k++ {
		for _, rr := range ph.rounds {
			if rr.input == k {
				out = append(out, rr)
				break
			}
		}
	}
	return out
}

// simLatencies pools the simulated latencies of the fixed rounds.
func (ph *phase) simLatencies() []time.Duration {
	var out []time.Duration
	for _, rr := range ph.fixedRounds() {
		out = append(out, rr.simLat...)
	}
	return out
}

// measured is the rounds that count toward host-time and memory metrics:
// all but the phase's first, which pays the process's one-time costs
// (heap growth, page faults, first use of code paths). Its checks and
// simulated latencies still count.
func (ph *phase) measured() []*roundResult {
	if len(ph.rounds) < 2 {
		return ph.rounds
	}
	return ph.rounds[1:]
}

// invocations is the number issued across the measured rounds.
func (ph *phase) invocations() int {
	n := 0
	for _, rr := range ph.measured() {
		n += rr.issued
	}
	return n
}

// tally counts attempted and failed operations: invocations, reads and
// correctness checks.
func (ph *phase) tally() (attempted, failed int) {
	for _, rr := range ph.rounds {
		attempted += rr.issued + len(rr.readMs) + len(rr.checks)
		failed += rr.failedOps
		for _, c := range rr.checks {
			if !c.ok {
				failed++
			}
		}
	}
	return attempted, failed
}

// perRound collects f over the measured rounds.
func (ph *phase) perRound(f func(rr *roundResult) float64) []float64 {
	rs := ph.measured()
	out := make([]float64, len(rs))
	for i, rr := range rs {
		out[i] = f(rr)
	}
	return out
}

// invPerS is the median over measured rounds of invocations per host
// second of the timed window. The median keeps a round that ran during
// a host stall from moving the result.
func (ph *phase) invPerS() float64 {
	return median(ph.perRound(func(rr *roundResult) float64 { return float64(rr.issued) / rr.hostSec }))
}

func simMs(lat []time.Duration) []float64 {
	out := make([]float64, len(lat))
	for i, d := range lat {
		out[i] = ms(d)
	}
	return out
}

func tailNote(s summary) string {
	if s.TailP == 100 {
		return fmt.Sprintf("n=%d tail=max", s.N)
	}
	return fmt.Sprintf("n=%d tail=p%g beyond=%d", s.N, s.TailP, s.Beyond)
}

// endToEnd reduces the phase to the end-to-end metrics.
func (ph *phase) endToEnd() report {
	r := report{}
	rs := ph.measured()
	R := len(rs)
	rounds := fmt.Sprintf("median of %d rounds", R)
	inv := float64(ph.invocations())
	r["inv_per_s"] = value{ph.invPerS(), fmt.Sprintf("%s, %d invocations", rounds, int(inv)), false}
	r["setup_s"] = value{median(ph.perRound(func(rr *roundResult) float64 { return rr.setupSec })), rounds + " set-ups", false}

	sim := summarize(simMs(ph.simLatencies()))
	r["sim_p50_ms"] = value{sim.P50, fmt.Sprintf("n=%d from round inputs 0-%d", sim.N, simInputs-1), false}
	r["sim_tail_ms"] = value{sim.Tail, tailNote(sim), false}

	inv50, _, rd := ph.latencies()
	r["invoke_p50_ms"] = inv50
	r["read_p50_ms"] = value{rd.P50, fmt.Sprintf("n=%d pooled", rd.N), false}

	var allocN, allocB float64
	for _, rr := range rs {
		allocN += float64(rr.allocs)
		allocB += float64(rr.allocBytes)
	}
	pooled := fmt.Sprintf("over %d invocations", int(inv))
	r["allocs_per_inv"] = value{allocN / inv, pooled, false}
	r["alloc_kb_per_inv"] = value{allocB / 1024 / inv, pooled, false}
	retained := ph.perRound(func(rr *roundResult) float64 { return float64(rr.retained) / 1024 / float64(rr.issued) })
	r["retained_kb_per_inv"] = value{median(retained), rounds + ", forced GC after warm-up and after the round", false}
	r["peak_rss_mb"] = value{peakRSSMB(), "process high-water mark", false}
	return r
}

// latencies reduces host invoke and read latencies: each round's invoke
// median and tail, then their medians over rounds, and the pooled reads.
func (ph *phase) latencies() (inv50, invTail value, reads summary) {
	rs := ph.measured()
	per := make([]summary, len(rs))
	var all []float64
	for i, rr := range rs {
		per[i] = summarize(rr.invokeMs)
		all = append(all, rr.readMs...)
	}
	rounds := fmt.Sprintf("median of %d rounds", len(rs))
	inv50 = value{median(pick(per, func(s summary) float64 { return s.P50 })), fmt.Sprintf("n=%d per round, %s", per[0].N, rounds), false}
	invTail = value{median(pick(per, func(s summary) float64 { return s.Tail })), tailNote(per[0]) + " per round, " + rounds, false}
	return inv50, invTail, summarize(all)
}

func pick(ss []summary, f func(summary) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// peakRSSMB reports the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// printFacts prints the digests and every failed check.
func (ph *phase) printFacts(out *bytes.Buffer) {
	lat := ph.simLatencies()
	fmt.Fprintf(out, "digest %s %s n=%d inputs=0-%d rounds=%d\n", ph.w.name, digest(lat), len(lat), simInputs-1, len(ph.rounds))
	passed, total := 0, 0
	for _, rr := range ph.rounds {
		for _, c := range rr.checks {
			total++
			if c.ok {
				passed++
				continue
			}
			fmt.Fprintf(out, "check FAIL %s: %s\n", c.name, c.detail)
		}
	}
	attempted, failed := ph.tally()
	fmt.Fprintf(out, "checks %d/%d passed; attempted=%d failed=%d error_rate=%g\n",
		passed, total, attempted, failed, float64(failed)/float64(attempted))
	fmt.Fprint(out, "rounds input:setup_ms:inv_per_s")
	for _, rr := range ph.rounds {
		fmt.Fprintf(out, " %d:%.2f:%.1f", rr.input, rr.setupSec*1e3, float64(rr.issued)/rr.hostSec)
	}
	fmt.Fprintln(out)
}

// runtimeSample is the runtime's CPU accounting (runtime/metrics).
type runtimeSample struct{ gcCPU, idleCPU, totalCPU, autoGC float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/automatic:gc-cycles"},
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{num(s[0].Value), num(s[1].Value), num(s[2].Value), num(s[3].Value)}
}

func (a runtimeSample) minus(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCPU - b.gcCPU, a.idleCPU - b.idleCPU, a.totalCPU - b.totalCPU, a.autoGC - b.autoGC}
}

func (a runtimeSample) plus(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCPU + b.gcCPU, a.idleCPU + b.idleCPU, a.totalCPU + b.totalCPU, a.autoGC + b.autoGC}
}

// runTraced alternates untraced and traced rounds for the run's time, so
// both see the same process state, and reports the per-layer metrics of
// the traced rounds; the untraced ones give trace.overhead_pct.
func runTraced(w workload, cfg config, out *bytes.Buffer) (result, error) {
	base, traced := newPhase(w), newPhase(w)
	tr := newTracer()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for k := 0; k < simInputs || time.Now().Before(deadline); k++ {
		rb, err := runRound(w, cfg, k, nil)
		if err != nil {
			return result{}, err
		}
		base.add(rb)
		rt, err := runRound(w, cfg, k, tr)
		if err != nil {
			return result{}, err
		}
		d, db := digest(rt.simLat), digest(rb.simLat)
		rt.check("traced-reproduces-untraced", d == db, "input %d traced digest %s, untraced %s", k, d, db)
		traced.add(rt)
	}
	var samples []cpuSample
	for _, rr := range traced.rounds {
		s, err := parseCPUProfile(rr.profile)
		if err != nil {
			return result{}, err
		}
		samples = append(samples, s...)
	}
	split := splitByLayer(samples)
	spans := tr.finish()
	r := traced.perLayer(base, split, spans)
	for _, name := range w.notMeasured {
		r[name] = value{0, "not observable from outside on this workload", true}
	}
	attempted, failed := base.tally()
	a2, f2 := traced.tally()
	attempted, failed = attempted+a2, failed+f2
	r["error_rate"] = value{float64(failed) / float64(attempted), fmt.Sprintf("%d of %d", failed, attempted), false}

	base.printFacts(out)
	traced.printFacts(out)
	printLines(out, perLayer, r)
	if err := writeLedger(cfg, w, spans, tr.dropped, split, traced, r); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "trace written to %s (%d spans, %d dropped)\n", cfg.traceOut, len(spans), tr.dropped)
	return result{correct: failed == 0, json: resultJSON(failed == 0, attempted, failed, perLayer, r)}, nil
}

// perLayer reduces the traced phase to the per-layer metrics. Counters
// come from the fixed rounds, so exact counts repeat for a seed; the CPU
// profile, runtime accounting and reads cover every traced round.
func (ph *phase) perLayer(base *phase, split profileSplit, spans []span) report {
	c, inv := ph.fixedCounts()
	var idle, late []float64
	var rt runtimeSample
	var allInv float64
	for _, rr := range ph.rounds {
		rt = rt.plus(rr.runtime)
		idle = append(idle, rr.idleMs...)
		late = append(late, rr.lateMs...)
		allInv += float64(rr.issued)
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	r := report{}
	put := func(name string, v float64, note string) { r[name] = value{v, note, false} }
	nInv := fmt.Sprintf("over %d invocations of inputs 0-%d", int(inv), simInputs-1)
	prof := fmt.Sprintf("of %d CPU samples", split.Samples)
	self := func(layer string) float64 { return split.SelfPct[layer] }

	put("sim.events_per_inv", c["events"]/inv, nInv)
	put("sim.pending_peak", c["pending_peak"], "Env.Pending after each step")
	put("sim.pending_mean", div(c["pending_sum"], c["steps"]), fmt.Sprintf("over %d steps", int(c["steps"])))
	put("sim.step_ns", div(c["step_ns"], c["steps"]), "host ns per Env.Step, callbacks included")
	put("sim.self_pct", self("sim"), prof)
	put("network.resolves_per_inv", c["resolves"]/inv, nInv)
	put("network.flows_per_inv", c["flows"]/inv, nInv)
	put("network.msgs_per_inv", c["msgs"]/inv, nInv)
	put("network.mb_per_inv", c["bytes"]/inv/(1<<20), nInv)
	put("network.storage_mb_per_inv", c["storage_bytes"]/inv/(1<<20), nInv)
	put("network.active_flows_peak", c["active_flows_peak"], "Fabric.ActiveFlows after each step")
	netSamples := self("network") / 100 * float64(split.Samples)
	put("network.us_per_resolve", div(netSamples*1e4, c["resolves"]), "network self CPU (10ms samples) per resolve")
	put("network.self_pct", self("network"), prof)
	put("cluster.cold_starts_per_inv", c["cold"]/inv, nInv)
	put("cluster.warm_ratio", div(c["warm"], c["warm"]+c["cold"]), "warm reuses / acquisitions")
	put("cluster.queued_waits_per_inv", c["queued"]/inv, nInv)
	put("cluster.shed", c["shed"], "Acquire-queue rejections")
	put("cluster.self_pct", self("cluster"), prof)
	put("store.local_gets_per_inv", c["local_gets"]/inv, nInv)
	put("store.remote_gets_per_inv", c["remote_gets"]/inv, nInv)
	put("store.local_byte_ratio", div(c["local_bytes"], c["local_bytes"]+c["remote_bytes"]), "bytes read locally / all bytes read")
	put("store.self_pct", self("store"), prof)
	put("scheduler.deploy_ms", div(c["deploy_ns"], c["deploys"])/1e6, fmt.Sprintf("mean of %d deploy spans", int(c["deploys"])))
	put("scheduler.localized_frac", div(c["local_edge_bytes_last"], c["edge_bytes_last"]), "edge bytes kept on one worker")
	put("engine.invoke_us", div(c["invoke_ns"], c["invoke_spans"])/1e3, fmt.Sprintf("mean of %d Invoke spans", int(c["invoke_spans"])))
	put("engine.retries", c["retries"], "executor retries")
	put("engine.self_pct", self("engine"), prof)
	put("journal.appends_per_inv", div(c["journal_appends"], c["journal_invocations"]), "over the deployments' lives, warm-up included")
	put("journal.records_per_sync", div(c["journal_committed"], c["journal_syncs"]), "group-commit batch size")
	put("journal.dup_drops", c["journal_dup_drops"], "")
	put("journal.self_pct", self("journal"), prof)
	put("admission.admitted", c["admitted"], "")
	put("admission.rejected", c["rejected"], "")
	put("admission.live_end", c["admission_live_last"], "live slots after the last round")
	put("admission.self_pct", self("admission"), prof)
	put("obs.events_per_inv", c["obs_events"]/inv, nInv)
	put("obs.metrics_kb", div(c["metrics_bytes"], c["metrics_scrapes"])/1024, fmt.Sprintf("mean of %d /metrics bodies", int(c["metrics_scrapes"])))
	put("obs.self_pct", self("obs"), prof)
	put("gateway.read_idle_ms", median(idle), fmt.Sprintf("median of %d reads with no invoke in flight", len(idle)))
	put("gateway.self_pct", self("gateway"), prof)
	put("net_http.self_pct", self("net_http"), prof)
	put("runtime.gc_pct", 100*div(rt.gcCPU, rt.totalCPU-rt.idleCPU), "runtime/metrics GC share of busy CPU in timed windows")
	put("runtime.malloc_pct", split.MallocPct, prof+" with runtime.mallocgc on the stack")
	put("runtime.gc_cycles_per_kinv", 1000*rt.autoGC/allInv, fmt.Sprintf("over %d traced invocations", int(allInv)))
	put("client.read_lateness_ms", median(late), fmt.Sprintf("median of %d reads", len(late)))
	_, invTail, rd := base.latencies()
	invTail.Note += " (untraced rounds)"
	r["client.invoke_tail_ms"] = invTail
	put("client.read_tail_ms", rd.Tail, tailNote(rd)+" pooled (untraced rounds)")
	bi, ti := base.invPerS(), ph.invPerS()
	put("trace.overhead_pct", 100*div(bi-ti, bi), fmt.Sprintf("untraced %.1f/s vs traced %.1f/s", bi, ti))
	put("trace.profile_samples", float64(split.Samples), "")
	put("trace.spans", float64(len(spans)), "")
	timeouts := 0
	lat := base.simLatencies()
	for _, d := range lat {
		if d >= simTimeout {
			timeouts++
		}
	}
	put("sim_timeout_frac", div(float64(timeouts), float64(len(lat))), "simulated latency at or past 60s")
	return r
}

// fixedCounts merges the fixed rounds' counters and counts their
// invocations.
func (ph *phase) fixedCounts() (counts, float64) {
	c := counts{}
	var inv float64
	for _, rr := range ph.fixedRounds() {
		c.merge(rr.counts)
		inv += float64(rr.issued)
	}
	return c, inv
}

// ledger is the traced run's file: spans with self time, per-span-name
// totals, the CPU profile split and every counter read.
type ledger struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Placement  uint64         `json:"placement_seed"`
	Arrival    uint64         `json:"arrival_seed"`
	Metrics    []ledgerMetric `json:"metrics"`
	Profile    profileSplit   `json:"profile"`
	Counters   []ledgerMetric `json:"counters"`
	SpanTotals []spanTotal    `json:"span_totals"`
	Dropped    int            `json:"spans_dropped"`
	Spans      []span         `json:"spans"`
}

type ledgerMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
	Note  string  `json:"note,omitempty"`
}

func writeLedger(cfg config, w workload, spans []span, dropped int, split profileSplit, ph *phase, r report) error {
	l := ledger{Workload: w.name, Seed: cfg.seed, Placement: cfg.placementSeed, Arrival: cfg.arrivalSeed,
		Profile: split, SpanTotals: spanTotals(spans), Dropped: dropped, Spans: spans}
	for _, d := range perLayer {
		l.Metrics = append(l.Metrics, ledgerMetric{d.Name, r[d.Name].V, d.Unit, r[d.Name].Note})
	}
	c, _ := ph.fixedCounts()
	for _, k := range c.keys() {
		l.Counters = append(l.Counters, ledgerMetric{Name: k, Value: c[k]})
	}
	data, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("trace ledger: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
		return fmt.Errorf("trace ledger: %w", err)
	}
	if err := os.WriteFile(cfg.traceOut, data, 0o644); err != nil {
		return fmt.Errorf("trace ledger: %w", err)
	}
	return nil
}
