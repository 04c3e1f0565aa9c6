package harness

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/scheduler"
	"repro/internal/workloads"
)

// System identifies the three configurations the evaluation compares.
type System int

const (
	// HyperFlow is the MasterSP baseline with database-only storage.
	HyperFlow System = iota
	// FaaSFlow is WorkerSP with database-only storage (isolates the
	// scheduling pattern; used in Fig 11).
	FaaSFlow
	// FaaSFlowFaaStore is WorkerSP with the adaptive hybrid store.
	FaaSFlowFaaStore
)

func (s System) String() string {
	switch s {
	case HyperFlow:
		return "HyperFlow-serverless"
	case FaaSFlow:
		return "FaaSFlow"
	case FaaSFlowFaaStore:
		return "FaaSFlow-FaaStore"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

func (s System) mode() engine.Mode {
	if s == HyperFlow {
		return engine.ModeMasterSP
	}
	return engine.ModeWorkerSP
}

func (s System) faastore() bool { return s == FaaSFlowFaaStore }

// newSystemTestbed builds a testbed configured for one system.
func newSystemTestbed(sys System, storageBW network.Bandwidth) *Testbed {
	return NewTestbed(ClusterSpec{StorageBW: storageBW, FaaStore: sys.faastore()})
}

func (tb *Testbed) deploySystem(sys System, bench *workloads.Benchmark, data engine.DataMode) (*Deployment, error) {
	opts := engine.Options{Mode: sys.mode(), Data: data}
	if data == engine.DataNone {
		// The scheduling-overhead methodology (§2.3, §5.2) packs all input
		// data into the container images, so the workflow has no heavy
		// data edges and functions stay hash-spread across the workers —
		// there is nothing for Algorithm 1 to localize. Execution jitter is
		// off because the metric subtracts nominal critical-path exec time.
		opts.NoJitter = true
		return tb.DeployHashed(bench, opts)
	}
	return tb.Deploy(bench, opts)
}

// scaled derives a figure's invocation count from the -n scale: n/div,
// but never below floor (at least 1), so no size reaches zero.
func scaled(n, div, floor int) int { return max(n/div, floor) }

// ---------------------------------------------------------------------------
// Figures 4 and 11: scheduling overhead.

// overheadRow is one benchmark's scheduling-overhead measurement.
type overheadRow struct {
	Bench      string
	Scientific bool
	// Overhead per system: mean end-to-end latency minus critical-path
	// execution time, measured with inputs packed in the image (DataNone).
	Overhead map[System]time.Duration
	E2E      map[System]time.Duration
}

// schedulingOverhead reproduces Fig 4 (HyperFlow only) and Fig 11 (both
// systems): closed-loop invocations with data shipping disabled.
func schedulingOverhead(systems []System, invocations int) ([]overheadRow, error) {
	var rows []overheadRow
	for _, bench := range workloads.All() {
		row := overheadRow{
			Bench:      bench.Name,
			Scientific: bench.Scientific,
			Overhead:   map[System]time.Duration{},
			E2E:        map[System]time.Duration{},
		}
		for _, sys := range systems {
			tb := newSystemTestbed(sys, network.MBps(50))
			d, err := tb.deploySystem(sys, bench, engine.DataNone)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", bench.Name, sys, err)
			}
			rec := ClosedLoop(tb.Env, d.Engine, 1, invocations)
			mean := rec.Mean()
			crit := time.Duration(d.Engine.CriticalExecSeconds() * float64(time.Second))
			row.E2E[sys] = mean
			row.Overhead[sys] = mean - crit
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// overheadAverages summarizes rows the way the paper quotes them: mean
// overhead for scientific workflows and for real-world applications.
func overheadAverages(rows []overheadRow, sys System) (sci, apps time.Duration) {
	var sciSum, appSum time.Duration
	var sciN, appN int
	for _, r := range rows {
		if r.Scientific {
			sciSum += r.Overhead[sys]
			sciN++
		} else {
			appSum += r.Overhead[sys]
			appN++
		}
	}
	if sciN > 0 {
		sci = sciSum / time.Duration(sciN)
	}
	if appN > 0 {
		apps = appSum / time.Duration(appN)
	}
	return sci, apps
}

func fig4Report(n int) (Report, error) {
	systems := []System{HyperFlow}
	rows, err := schedulingOverhead(systems, scaled(n, 1, 1))
	if err != nil {
		return Report{}, err
	}
	sci, apps := overheadAverages(rows, HyperFlow)
	rep := Report{Table: renderOverhead(rows, systems), Notes: []string{
		fmt.Sprintf("averages: scientific %s, real-world %s (paper: 712ms / 181.3ms)", metrics.Millis(sci), metrics.Millis(apps)),
	}}
	rep.addChart("fig4", chartOverhead(rows, systems))
	if sci <= apps {
		rep.Gate = fmt.Errorf("fig4: scientific overhead %s is not above the apps' %s", metrics.Millis(sci), metrics.Millis(apps))
	}
	return rep, nil
}

func fig11Report(n int) (Report, error) {
	systems := []System{HyperFlow, FaaSFlow}
	rows, err := schedulingOverhead(systems, scaled(n, 1, 1))
	if err != nil {
		return Report{}, err
	}
	hSci, hApp := overheadAverages(rows, HyperFlow)
	fSci, fApp := overheadAverages(rows, FaaSFlow)
	red := overheadReduction(rows, HyperFlow, FaaSFlow)
	rep := Report{Table: renderOverhead(rows, systems), Notes: []string{
		fmt.Sprintf("averages: HyperFlow %s/%s, FaaSFlow %s/%s (paper: 712/181.3 -> 141.9/51.4, 74.6%% cut)",
			metrics.Millis(hSci), metrics.Millis(hApp), metrics.Millis(fSci), metrics.Millis(fApp)),
		"measured average reduction: " + metrics.Pct(red),
	}}
	rep.addChart("fig11", chartOverhead(rows, systems))
	for _, r := range rows {
		if r.Overhead[FaaSFlow] >= r.Overhead[HyperFlow] {
			rep.Gate = fmt.Errorf("fig11 %s: FaaSFlow overhead %s does not beat HyperFlow's %s",
				r.Bench, metrics.Millis(r.Overhead[FaaSFlow]), metrics.Millis(r.Overhead[HyperFlow]))
			return rep, nil
		}
	}
	if math.Abs(red-paperReduction) > 0.10 {
		rep.Gate = fmt.Errorf("fig11: mean reduction %s is more than 10 points from the paper's %s", metrics.Pct(red), metrics.Pct(paperReduction))
	}
	return rep, nil
}

// paperReduction is §5.2's mean scheduling-overhead cut.
const paperReduction = 0.746

// ---------------------------------------------------------------------------
// Figure 5: data movement, monolithic vs FaaS.

// movementRow is one benchmark's per-invocation data movement.
type movementRow struct {
	Bench      string
	Monolithic int64 // bytes moved by the monolithic deployment
	FaaS       int64 // bytes measured through the remote store
}

// amplification is the FaaS-to-monolithic byte ratio.
func (r movementRow) amplification() float64 { return float64(r.FaaS) / float64(r.Monolithic) }

// dataMovement reproduces Fig 5 by running one measured invocation per
// benchmark through the database-only data path and reading the store's
// byte counters.
func dataMovement() ([]movementRow, error) {
	var rows []movementRow
	for _, bench := range workloads.All() {
		tb := newSystemTestbed(HyperFlow, network.MBps(200))
		d, err := tb.deploySystem(HyperFlow, bench, engine.DataStore)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bench.Name, err)
		}
		before := tb.Remote.Stats()
		ClosedLoop(tb.Env, d.Engine, 1, 1)
		after := tb.Remote.Stats()
		moved := (after.BytesPut - before.BytesPut) / 2 // warmup also counted
		moved += (after.BytesGot - before.BytesGot) / 2
		rows = append(rows, movementRow{
			Bench:      bench.Name,
			Monolithic: bench.MonolithicBytes,
			FaaS:       moved,
		})
	}
	return rows, nil
}

func fig5Report(int) (Report, error) {
	rows, err := dataMovement()
	if err != nil {
		return Report{}, err
	}
	rep := Report{Table: renderMovement(rows), Notes: []string{
		"paper quotes: Cyc 23.95MB -> 1182.3MB (39.5x network), Vid 4.23MB -> 96.82MB (22.9x)",
	}}
	rep.addChart("fig5", chartMovement(rows))
	top := rows[0]
	for _, r := range rows {
		if r.FaaS <= r.Monolithic {
			rep.Gate = fmt.Errorf("fig5 %s: FaaS moves %s, not more than monolithic %s", r.Bench, metrics.MBytes(r.FaaS), metrics.MBytes(r.Monolithic))
			return rep, nil
		}
		if r.amplification() > top.amplification() {
			top = r
		}
	}
	if top.Bench != "Cyc" {
		rep.Gate = fmt.Errorf("fig5: %s, not Cyc, has the largest amplification", top.Bench)
	}
	return rep, nil
}

// ---------------------------------------------------------------------------
// Table 4: total data-movement latency over all edges.

// transferRow is one benchmark's Table 4 entry.
type transferRow struct {
	Bench     string
	HyperFlow time.Duration // per-invocation total transfer latency
	FaaStore  time.Duration
}

// Reduction reports the fractional latency cut FaaSFlow-FaaStore achieves.
func (r transferRow) Reduction() float64 {
	if r.HyperFlow == 0 {
		return 0
	}
	return 1 - float64(r.FaaStore)/float64(r.HyperFlow)
}

// transferLatency reproduces Table 4: the summed latency of every edge's
// data movement per invocation, under both systems, at the testbed's
// default 50 MB/s storage bandwidth (the §5.4 sweeps vary it).
func transferLatency(invocations int) ([]transferRow, error) {
	var rows []transferRow
	for _, bench := range workloads.All() {
		row := transferRow{Bench: bench.Name}
		for _, sys := range []System{HyperFlow, FaaSFlowFaaStore} {
			tb := newSystemTestbed(sys, network.MBps(50))
			d, err := tb.deploySystem(sys, bench, engine.DataStore)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", bench.Name, sys, err)
			}
			// Warm up (uncounted), then measure the store's cumulative
			// transfer time across the recorded invocations.
			ClosedLoop(tb.Env, d.Engine, 1, 0)
			before := tb.Runtime.Store.TransferTime()
			ClosedLoop(tb.Env, d.Engine, 0, invocations)
			perInv := (tb.Runtime.Store.TransferTime() - before) / time.Duration(invocations)
			if sys == HyperFlow {
				row.HyperFlow = perInv
			} else {
				row.FaaStore = perInv
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func table4Report(n int) (Report, error) {
	rows, err := transferLatency(scaled(n, 20, 3))
	if err != nil {
		return Report{}, err
	}
	rep := Report{Table: renderTransfer(rows), Notes: []string{
		"paper: Cyc 204.2->10.28 (95%), Epi 2.23->0.69 (69%), Gen 29.26->22.17 (24%), Soy 10.06->9.53 (5.2%),",
		"       Vid 4.02->1.03 (74%), IR 0.20->0.13 (35%), FP 1.29->0.49 (62%), WC 1.46->0.21 (70%)",
	}}
	rep.addChart("table4", chartTransfer(rows))
	for _, r := range rows {
		if r.Reduction() <= 0 {
			rep.Gate = fmt.Errorf("table4 %s: FaaSFlow-FaaStore %s does not reduce HyperFlow's %s",
				r.Bench, metrics.Seconds(r.FaaStore), metrics.Seconds(r.HyperFlow))
			break
		}
	}
	return rep, nil
}

// ---------------------------------------------------------------------------
// Figures 12 and 13: tail latency and throughput under bandwidth limits.

// tailRow is one (benchmark, system, bandwidth, rate) measurement.
type tailRow struct {
	Bench     string
	Sys       System
	StorageMB float64 // storage-node bandwidth in MB/s
	PerMinute float64 // open-loop arrival rate
	P99       time.Duration
	Timeouts  float64 // fraction of invocations at the 60 s clamp
}

// tailLatency measures open-loop p99 latency for the given benchmarks,
// systems, bandwidths (MB/s) and rates (invocations/minute) — Fig 13 is
// the 50 MB/s, 6/min column over all benchmarks; Fig 12 sweeps bandwidth
// and rate for Gen and Vid.
func tailLatency(benches []string, systems []System, bandwidthsMB []float64, rates []float64, invocations int) ([]tailRow, error) {
	var rows []tailRow
	for _, name := range benches {
		bench := workloads.ByName(name)
		if bench == nil {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		for _, sys := range systems {
			for _, bw := range bandwidthsMB {
				for _, rate := range rates {
					tb := newSystemTestbed(sys, network.MBps(bw))
					d, err := tb.deploySystem(sys, workloads.ByName(name), engine.DataStore)
					if err != nil {
						return nil, fmt.Errorf("%s/%s: %w", name, sys, err)
					}
					rec := OpenLoop(tb.Env, d.Engine, rate, 1, invocations)
					rows = append(rows, tailRow{
						Bench:     name,
						Sys:       sys,
						StorageMB: bw,
						PerMinute: rate,
						P99:       rec.P99(),
						Timeouts:  rec.TimeoutRate(Timeout),
					})
				}
			}
		}
	}
	return rows, nil
}

// tailSystems are the systems Figs 12 and 13 compare.
var tailSystems = []System{HyperFlow, FaaSFlowFaaStore}

func fig12Report(n int) (Report, error) {
	rows, err := tailLatency([]string{"Gen", "Vid"}, tailSystems,
		[]float64{25, 50, 75, 100}, []float64{2, 4, 6, 8}, scaled(n, 4, 1))
	if err != nil {
		return Report{}, err
	}
	rep := Report{Table: renderTail(rows), Notes: []string{
		"paper claim: FaaSFlow-FaaStore @25/50MB/s matches HyperFlow @100/75MB/s (1.5x-4x bandwidth utilization)",
	}, Gate: checkTail("fig12", rows)}
	rep.addChart("fig12-gen", chartBandwidthSweep(rows, "Gen", 6))
	rep.addChart("fig12-vid", chartBandwidthSweep(rows, "Vid", 6))
	return rep, nil
}

func fig13Report(n int) (Report, error) {
	rows, err := tailLatency([]string{"Cyc", "Epi", "Gen", "Soy", "Vid", "IR", "FP", "WC"}, tailSystems,
		[]float64{50}, []float64{6}, scaled(n, 1, 1))
	if err != nil {
		return Report{}, err
	}
	rep := Report{Table: renderTail(rows), Notes: []string{
		"paper: Cyc and Gen hit the 60s timeout under HyperFlow-serverless; FaaSFlow-FaaStore cuts their p99 by 75.2%, others by 23.3%",
	}, Gate: checkTail("fig13", rows)}
	rep.addChart("fig13", chartTail(rows))
	for _, r := range rows {
		if rep.Gate == nil && r.Bench == "Cyc" && r.Sys == HyperFlow && r.Timeouts == 0 {
			rep.Gate = fmt.Errorf("fig13: Cyc does not time out under %s", HyperFlow)
		}
	}
	return rep, nil
}

// checkTail requires FaaSFlow-FaaStore's p99 to be no worse than
// HyperFlow's at every measured (benchmark, bandwidth, rate) point.
func checkTail(fig string, rows []tailRow) error {
	type point struct {
		bench    string
		bw, rate float64
	}
	hyper := map[point]time.Duration{}
	for _, r := range rows {
		if r.Sys == HyperFlow {
			hyper[point{r.Bench, r.StorageMB, r.PerMinute}] = r.P99
		}
	}
	for _, r := range rows {
		if h := hyper[point{r.Bench, r.StorageMB, r.PerMinute}]; r.Sys == FaaSFlowFaaStore && r.P99 > h {
			return fmt.Errorf("%s %s @%.0fMB/s %.0f/min: %s p99 %s exceeds %s's %s",
				fig, r.Bench, r.StorageMB, r.PerMinute, r.Sys, metrics.Seconds(r.P99), HyperFlow, metrics.Seconds(h))
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Figure 14: co-location interference.

// coLocationRow compares a benchmark's solo and co-run latencies.
type coLocationRow struct {
	Bench string
	Sys   System
	Solo  time.Duration
	CoRun time.Duration
}

// Degradation reports (co-run − solo) / solo.
func (r coLocationRow) Degradation() float64 {
	if r.Solo == 0 {
		return 0
	}
	return float64(r.CoRun-r.Solo) / float64(r.Solo)
}

// coLocation reproduces Fig 14: each benchmark measured solo (fresh
// cluster) and with all eight benchmarks co-running in one cluster, per
// system.
func coLocation(systems []System, invocations int) ([]coLocationRow, error) {
	var rows []coLocationRow
	for _, sys := range systems {
		solo := map[string]time.Duration{}
		for _, bench := range workloads.All() {
			tb := newSystemTestbed(sys, network.MBps(50))
			d, err := tb.deploySystem(sys, bench, engine.DataStore)
			if err != nil {
				return nil, fmt.Errorf("solo %s/%s: %w", bench.Name, sys, err)
			}
			solo[bench.Name] = ClosedLoop(tb.Env, d.Engine, 1, invocations).Mean()
		}
		tb := newSystemTestbed(sys, network.MBps(50))
		var engines []*engine.Deployment
		var names []string
		for _, bench := range workloads.All() {
			d, err := tb.deploySystem(sys, bench, engine.DataStore)
			if err != nil {
				return nil, fmt.Errorf("corun %s/%s: %w", bench.Name, sys, err)
			}
			engines = append(engines, d.Engine)
			names = append(names, bench.Name)
		}
		recs := CoRun(tb.Env, engines, 1, invocations)
		for i, name := range names {
			rows = append(rows, coLocationRow{
				Bench: name,
				Sys:   sys,
				Solo:  solo[name],
				CoRun: recs[i].Mean(),
			})
		}
	}
	return rows, nil
}

func fig14Report(n int) (Report, error) {
	rows, err := coLocation(tailSystems, scaled(n, 10, 4))
	if err != nil {
		return Report{}, err
	}
	rep := Report{Table: renderCoLocation(rows), Notes: []string{
		"paper degradations (HyperFlow): Cyc 50.3%, Gen 48.5%, Vid 84.4%, WC 66.2%; FaaSFlow-FaaStore greatly reduced",
	}}
	rep.addChart("fig14", chartCoLocation(rows))
	hyper := map[string]float64{}
	for _, r := range rows {
		if r.Sys == HyperFlow {
			hyper[r.Bench] = r.Degradation()
		} else if r.Degradation() >= hyper[r.Bench] {
			rep.Gate = fmt.Errorf("fig14 %s: %s degrades %s, not less than %s's %s",
				r.Bench, r.Sys, metrics.Pct(r.Degradation()), HyperFlow, metrics.Pct(hyper[r.Bench]))
			break
		}
	}
	return rep, nil
}

// ---------------------------------------------------------------------------
// Figure 15: grouping and scheduling distribution.

// distributionRow reports how one benchmark's task nodes spread over the
// workers when all eight benchmarks are scheduled into one cluster.
type distributionRow struct {
	Bench     string
	Groups    int
	PerWorker map[string]int // worker -> task-node count
}

// schedulingDistribution reproduces Fig 15: schedule all benchmarks into a
// shared cluster and report each one's node distribution. The experiment
// runs at the co-location operating point, where runtime feedback reports
// ~2 scaled container instances per function node (§4.1.2), so large
// workflows split across workers while small apps stay whole.
func schedulingDistribution() ([]distributionRow, error) {
	tb := NewTestbed(ClusterSpec{FaaStore: true, ScaleLimit: 96})
	tb.ScaleHint = 2
	var rows []distributionRow
	for _, bench := range workloads.All() {
		d, err := tb.deploySystem(FaaSFlowFaaStore, bench, engine.DataStore)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bench.Name, err)
		}
		per := map[string]int{}
		for _, n := range bench.Graph.Nodes() {
			per[d.Placement.Worker[n.ID]]++
		}
		rows = append(rows, distributionRow{
			Bench:     bench.Name,
			Groups:    len(d.Placement.Groups),
			PerWorker: per,
		})
	}
	return rows, nil
}

func fig15Report(int) (Report, error) {
	rows, err := schedulingDistribution()
	if err != nil {
		return Report{}, err
	}
	rep := Report{Table: renderDistribution(rows, []string{"w0", "w1", "w2", "w3", "w4", "w5", "w6"}), Notes: []string{
		"paper: 50-node scientific workflows spread across the 7 workers; ~10-node apps land on one worker",
	}}
	for _, r := range rows {
		nodes, workers := 0, 0
		for _, c := range r.PerWorker {
			if c > 0 {
				nodes += c
				workers++
			}
		}
		if (nodes == 50 && workers < 2) || ((r.Bench == "Vid" || r.Bench == "WC") && workers != 1) {
			rep.Gate = fmt.Errorf("fig15 %s: %d nodes span %d workers", r.Bench, nodes, workers)
			break
		}
	}
	return rep, nil
}

// ---------------------------------------------------------------------------
// Figure 16: graph scheduler scalability.

// schedulerCostRow measures one Schedule() call's real cost.
type schedulerCostRow struct {
	Nodes      int
	WallTime   time.Duration
	AllocBytes uint64
	Groups     int
}

// schedulerScalability reproduces Fig 16: run the Graph Scheduler on
// Genome instances of growing size and record real CPU time and memory.
// repeats > 1 reports the per-call average.
func schedulerScalability(sizes []int, repeats int) ([]schedulerCostRow, error) {
	if repeats < 1 {
		repeats = 1
	}
	var rows []schedulerCostRow
	for _, n := range sizes {
		bench := workloads.Genome(n)
		in := scheduler.Input{
			Graph: bench.Graph,
			ExecSeconds: func(nd dag.Node) float64 {
				return bench.Functions[nd.Function].ExecSeconds
			},
			Contention: bench.Contention,
			Workers:    []string{"w0", "w1", "w2", "w3", "w4", "w5", "w6"},
			Cap:        map[string]int{"w0": 1 << 20, "w1": 1 << 20, "w2": 1 << 20, "w3": 1 << 20, "w4": 1 << 20, "w5": 1 << 20, "w6": 1 << 20},
			Quota:      1 << 40,
		}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		var groups int
		for r := 0; r < repeats; r++ {
			p, err := scheduler.Schedule(in)
			if err != nil {
				return nil, err
			}
			groups = len(p.Groups)
		}
		wall := time.Since(start) / time.Duration(repeats)
		runtime.ReadMemStats(&ms1)
		rows = append(rows, schedulerCostRow{
			Nodes:      n,
			WallTime:   wall,
			AllocBytes: (ms1.TotalAlloc - ms0.TotalAlloc) / uint64(repeats),
			Groups:     groups,
		})
	}
	return rows, nil
}

// fig16Report has no gate: its columns are host measurements.
func fig16Report(int) (Report, error) {
	rows, err := schedulerScalability([]int{10, 25, 50, 100, 200}, 5)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Table: renderSchedulerCost(rows), Notes: []string{
		"paper: cost grows ~O(n^2); fine for workflows under 50 nodes",
	}}
	rep.addChart("fig16", chartSchedulerCost(rows))
	return rep, nil
}

// ---------------------------------------------------------------------------
// §5.7: engine component overhead.

// engineOverheadRow reports per-engine resource use for one cluster size.
type engineOverheadRow struct {
	Workers        int
	Invocations    int
	MasterBusyFrac float64 // master engine busy time / elapsed
	WorkerBusyFrac float64 // mean worker engine busy time / elapsed
	EventsPerInv   float64 // engine events per invocation (all engines)
	EngineMemMB    float64 // mean worker engine resident memory estimate
}

// engineOverhead reproduces the §5.7 study: run a benchmark closed-loop on
// clusters of increasing size and report engine-loop resource use.
func engineOverhead(workerCounts []int, invocations int) ([]engineOverheadRow, error) {
	var rows []engineOverheadRow
	bench := workloads.WordCount()
	for _, w := range workerCounts {
		tb := NewTestbed(ClusterSpec{Workers: w, FaaStore: true})
		d, err := tb.deploySystem(FaaSFlowFaaStore, bench, engine.DataStore)
		if err != nil {
			return nil, err
		}
		ClosedLoop(tb.Env, d.Engine, 1, invocations)
		elapsed := tb.Env.Now().Duration()
		if elapsed == 0 {
			elapsed = time.Nanosecond
		}
		var workerBusy time.Duration
		var events int64
		for _, id := range tb.Workers {
			ws := d.Engine.WorkerStats(id)
			workerBusy += ws.Busy
			events += ws.Events
		}
		ms := d.Engine.MasterStats()
		events += ms.Events
		var memSum float64
		for _, id := range tb.Workers {
			memSum += float64(d.Engine.EngineMemory(id))
		}
		rows = append(rows, engineOverheadRow{
			Workers:        w,
			Invocations:    invocations,
			MasterBusyFrac: ms.Busy.Seconds() / elapsed.Seconds(),
			WorkerBusyFrac: workerBusy.Seconds() / elapsed.Seconds() / float64(w),
			EventsPerInv:   float64(events) / float64(invocations+1),
			EngineMemMB:    memSum / float64(w) / 1e6,
		})
	}
	return rows, nil
}

func sec57Report(n int) (Report, error) {
	rows, err := engineOverhead([]int{1, 2, 4, 7, 10, 20, 50, 100}, scaled(n, 10, 5))
	if err != nil {
		return Report{}, err
	}
	rep := Report{Table: renderEngineOverhead(rows), Notes: []string{
		"paper: engine uses ~0.12 core / 47MB per worker; resource use scales linearly with cluster size",
	}}
	for _, r := range rows {
		if r.EventsPerInv != rows[0].EventsPerInv {
			rep.Gate = fmt.Errorf("sec57: %.1f events/inv on %d workers, %.1f on %d",
				r.EventsPerInv, r.Workers, rows[0].EventsPerInv, rows[0].Workers)
			break
		}
	}
	return rep, nil
}

// ---------------------------------------------------------------------------
// Rendering helpers.

// renderOverhead builds the Fig 4/11 table.
func renderOverhead(rows []overheadRow, systems []System) *metrics.Table {
	header := []string{"bench"}
	for _, s := range systems {
		header = append(header, s.String()+" overhead", s.String()+" e2e")
	}
	t := metrics.NewTable(header...)
	for _, r := range rows {
		cells := []string{r.Bench}
		for _, s := range systems {
			cells = append(cells, metrics.Millis(r.Overhead[s]), metrics.Millis(r.E2E[s]))
		}
		t.AddRow(cells...)
	}
	return t
}

// renderMovement builds the Fig 5 table.
func renderMovement(rows []movementRow) *metrics.Table {
	t := metrics.NewTable("bench", "monolithic", "FaaS", "amplification")
	for _, r := range rows {
		t.AddRow(r.Bench, metrics.MBytes(r.Monolithic), metrics.MBytes(r.FaaS),
			fmt.Sprintf("%.1fx", r.amplification()))
	}
	return t
}

// renderTransfer builds the Table 4 table.
func renderTransfer(rows []transferRow) *metrics.Table {
	t := metrics.NewTable("bench", "HyperFlow-serverless", "FaaSFlow-FaaStore", "reduced")
	for _, r := range rows {
		t.AddRow(r.Bench, metrics.Seconds(r.HyperFlow), metrics.Seconds(r.FaaStore),
			metrics.Pct(r.Reduction()))
	}
	return t
}

// renderTail builds the Fig 12/13 table.
func renderTail(rows []tailRow) *metrics.Table {
	t := metrics.NewTable("bench", "system", "storage", "rate/min", "p99", "timeouts")
	for _, r := range rows {
		t.AddRow(r.Bench, r.Sys.String(), fmt.Sprintf("%.0fMB/s", r.StorageMB),
			fmt.Sprintf("%.0f", r.PerMinute), metrics.Seconds(r.P99), metrics.Pct(r.Timeouts))
	}
	return t
}

// renderCoLocation builds the Fig 14 table.
func renderCoLocation(rows []coLocationRow) *metrics.Table {
	t := metrics.NewTable("bench", "system", "solo", "co-run", "degradation")
	for _, r := range rows {
		t.AddRow(r.Bench, r.Sys.String(), metrics.Seconds(r.Solo), metrics.Seconds(r.CoRun),
			metrics.Pct(r.Degradation()))
	}
	return t
}

// renderDistribution builds the Fig 15 table.
func renderDistribution(rows []distributionRow, workers []string) *metrics.Table {
	header := append([]string{"bench", "groups"}, workers...)
	t := metrics.NewTable(header...)
	for _, r := range rows {
		cells := []string{r.Bench, fmt.Sprintf("%d", r.Groups)}
		for _, w := range workers {
			cells = append(cells, fmt.Sprintf("%d", r.PerWorker[w]))
		}
		t.AddRow(cells...)
	}
	return t
}

// renderSchedulerCost builds the Fig 16 table.
func renderSchedulerCost(rows []schedulerCostRow) *metrics.Table {
	t := metrics.NewTable("nodes", "wall time", "alloc", "groups")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Nodes), fmt.Sprintf("%.3fms", float64(r.WallTime)/1e6),
			fmt.Sprintf("%.2fMB", float64(r.AllocBytes)/1e6), fmt.Sprintf("%d", r.Groups))
	}
	return t
}

// renderEngineOverhead builds the §5.7 table.
func renderEngineOverhead(rows []engineOverheadRow) *metrics.Table {
	t := metrics.NewTable("workers", "master busy", "worker busy", "events/inv", "engine mem")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Workers), metrics.Pct(r.MasterBusyFrac),
			metrics.Pct(r.WorkerBusyFrac), fmt.Sprintf("%.1f", r.EventsPerInv),
			fmt.Sprintf("%.1fMB", r.EngineMemMB))
	}
	return t
}
