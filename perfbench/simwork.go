package main

import (
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/workloads"
)

const (
	// readInterval is how often gateway-mixed's scrape is due. A scrape
	// takes milliseconds, so a 30 s run makes about 700 of them.
	readInterval = 40 * time.Millisecond
	// simReadInterval is how often the simulator workloads' live-counter
	// read is due. A read costs microseconds but waits for the step in
	// progress, whose length varies tenfold, so the median needs many
	// samples: a 30 s run makes about 14,000 reads.
	simReadInterval = 2 * time.Millisecond
	// stepBatch is how many Env.Step calls one traced span covers.
	stepBatch = 256
	// genomeRound is the closed-loop invocations in one genome-closed round.
	genomeRound = 400
	// mixWindow is the simulated arrival window of one hyperflow-mix-open
	// round; mixPerMinute is each benchmark's Poisson arrival rate.
	mixWindow    = 5 * time.Minute
	mixPerMinute = 6
	// simTimeout is the paper's invocation timeout (§5.1).
	simTimeout = harness.Timeout
)

// genomeClosed is FaaSFlow (WorkerSP + FaaStore) on Genome(50) with one
// closed-loop client: with one invocation in flight, engine dispatch,
// warm acquire, the store and the event kernel do the work.
var genomeClosed = workload{
	name: "genome-closed",
	setup: func(cfg config, k int, tr *tracer, parent int) (instance, error) {
		s, err := newSimInst(cfg, tr, parent, true, []*workloads.Benchmark{genBench(tr, parent)}, engine.ModeWorkerSP)
		if err != nil {
			return nil, err
		}
		return &genomeInst{simInst: s, firstID: invocationBase(cfg.seed, k)}, nil
	},
	notMeasured: []string{
		"journal.appends_per_inv", "journal.records_per_sync", "journal.dup_drops",
		"admission.admitted", "admission.rejected", "admission.live_end",
		"obs.events_per_inv", "obs.metrics_kb",
	},
}

// hyperflowMixOpen co-deploys all eight benchmarks under
// HyperFlow-serverless at the Fig. 13 point (50 MB/s, 6/min each, open
// loop): every byte crosses the storage link, so the kernel's heap, the
// fabric solve and contended WFQ dominate.
var hyperflowMixOpen = workload{
	name: "hyperflow-mix-open",
	setup: func(cfg config, k int, tr *tracer, parent int) (instance, error) {
		sp := tr.begin("workloads.All", parent, -1)
		benches := workloads.All()
		tr.end(sp)
		s, err := newSimInst(cfg, tr, parent, false, benches, engine.ModeMasterSP)
		if err != nil {
			return nil, err
		}
		s.openLoop = true
		return &mixInst{simInst: s, arrivals: mixArrivals(mix(cfg.arrivalSeed, uint64(k)), len(benches))}, nil
	},
	notMeasured: []string{
		"journal.appends_per_inv", "journal.records_per_sync", "journal.dup_drops",
		"admission.admitted", "admission.rejected", "admission.live_end",
		"obs.events_per_inv", "obs.metrics_kb",
	},
}

func genBench(tr *tracer, parent int) *workloads.Benchmark {
	sp := tr.begin("workloads.Genome", parent, -1)
	defer tr.end(sp)
	return workloads.Genome(50)
}

// arrival is one scheduled invocation of benchmark bench.
type arrival struct {
	at    time.Duration
	bench int
}

// mixArrivals draws each benchmark's Poisson arrivals over mixWindow,
// conditioned on the expected count: given its count, a Poisson process's
// arrival instants are independent and uniform over the window. Fixing
// the count removes the run-to-run swing in offered load and keeps the
// burstiness. Arrivals are merged in time order (ties by benchmark).
func mixArrivals(seed uint64, benches int) []arrival {
	var out []arrival
	perBench := int(mixPerMinute * mixWindow / time.Minute)
	for b := 0; b < benches; b++ {
		rng := sim.NewRand(mix(seed, uint64(b+1)))
		for i := 0; i < perBench; i++ {
			out = append(out, arrival{time.Duration(rng.Float64() * float64(mixWindow)), b})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].at != out[j].at {
			return out[i].at < out[j].at
		}
		return out[i].bench < out[j].bench
	})
	return out
}

// invocationBase is the first invocation id of genome-closed round input
// k. The engine draws each task's ±15% execution jitter from the
// invocation id, so the seed selects the invocation stream; ids keep ten
// digits so storage keys have one length for every seed.
func invocationBase(seed uint64, k int) int64 {
	return 1_000_000_000 + int64(mix(seed, uint64(k)+1)%999_000)*1000
}

// simInst is a testbed with deployments, driven one Env.Step at a time.
type simInst struct {
	tb    *harness.Testbed
	deps  []*harness.Deployment
	batch int // open step-batch span, the parent of Invoke spans
	// tenanted labels each invocation with its benchmark's name, so
	// co-deployed benchmarks share containers by weighted-fair queueing.
	tenanted bool
	// openLoop clients do not wait for completion: an invocation's host
	// latency is its dispatch call. Closed-loop clients wait for the
	// completion callback.
	openLoop bool

	// set-up facts
	deployNs, edgeBytes, localEdgeBytes float64
	// counters read at the start and end of the timed window
	start, end layerSnap
}

func newSimInst(cfg config, tr *tracer, parent int, faastore bool, benches []*workloads.Benchmark, mode engine.Mode) (*simInst, error) {
	// Co-deployed benchmarks are each their own tenant.
	tenanted := len(benches) > 1
	sp := tr.begin("harness.NewTestbed", parent, -1)
	tb := harness.NewTestbed(harness.ClusterSpec{FaaStore: faastore, StorageBW: network.MBps(50), Seed: cfg.placementSeed})
	tr.end(sp)
	s := &simInst{tb: tb, batch: -1, tenanted: tenanted}
	for _, b := range benches {
		sp := tr.begin("harness.Deploy", parent, -1)
		t0 := time.Now()
		d, err := tb.Deploy(b, engine.Options{Mode: mode, Data: engine.DataStore})
		s.deployNs += float64(time.Since(t0))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		s.deps = append(s.deps, d)
		local, total := d.Placement.LocalityBytes(b.Graph)
		s.localEdgeBytes += float64(local)
		s.edgeBytes += float64(total)
	}
	// Warm-up: one invocation per deployment, run until all complete. The
	// queue is not drained, so containers stay warm into the timed round.
	sp = tr.begin("warmup", parent, -1)
	left := len(s.deps)
	for _, d := range s.deps {
		d.Engine.InvokeOpts(engine.InvokeOptions{Tenant: s.tenant(d)}, func(engine.Result) { left-- })
	}
	for left > 0 && tb.Env.Step() {
	}
	tr.end(sp)
	return s, nil
}

func (s *simInst) tenant(d *harness.Deployment) string {
	if s.tenanted {
		return d.Bench.Name
	}
	return ""
}

// layerSnap is one read of the public counters of every simulated layer,
// taken at the start and end of the timed window, when no task runs.
type layerSnap struct {
	events, resolves, flows, msgs, bytes, storageBytes float64
	cold, warm, queued, shed                           float64
	localGets, remoteGets, localBytes, remoteBytes     float64
	retries                                            float64
}

func (s *simInst) snap() layerSnap {
	tb := s.tb
	var ls layerSnap
	ls.events = float64(tb.Env.Fired())
	ls.resolves = float64(tb.Fabric.Resolves())
	fs := tb.Fabric.Stats()
	ls.flows, ls.msgs, ls.bytes = float64(fs.TotalFlows), float64(fs.TotalMsgs), float64(fs.TotalBytes)
	out, in := tb.Fabric.NodeBytes(harness.MasterNode)
	ls.storageBytes = float64(out + in)
	for _, w := range tb.Workers {
		st := tb.Runtime.Nodes[w].Stats()
		ls.cold += float64(st.ColdStarts)
		ls.warm += float64(st.WarmReuses)
		ls.queued += float64(st.QueuedWaits)
		ls.shed += float64(st.Shed)
		ls.localBytes += float64(tb.Mems[w].Stats().BytesGot)
	}
	st := tb.Runtime.Store
	ls.localGets = float64(st.LocalHits())
	rs := st.Remote().Stats()
	ls.remoteGets, ls.remoteBytes = float64(rs.Gets), float64(rs.BytesGot)
	for _, d := range s.deps {
		ls.retries += float64(d.Engine.Retries())
	}
	return ls
}

// liveView is what the reader reads while a round runs: occupancy and
// counters from getters that leave the simulation untouched. It skips
// cluster.Node.Stats, which cancels running tasks' finish events without
// rescheduling them when called mid-run; snap calls it only when no task
// runs.
type liveView struct {
	events, resolves, flows, bytes     int64
	pending, activeFlows               int
	containers, busy, queued, running  int
	localHits, localMisses, remoteGets int64
}

func (s *simInst) live() liveView {
	tb := s.tb
	v := liveView{
		events:      int64(tb.Env.Fired()),
		pending:     tb.Env.Pending(),
		resolves:    tb.Fabric.Resolves(),
		activeFlows: tb.Fabric.ActiveFlows(),
		localHits:   tb.Runtime.Store.LocalHits(),
		localMisses: tb.Runtime.Store.LocalMisses(),
		remoteGets:  tb.Remote.Stats().Gets,
	}
	fs := tb.Fabric.Stats()
	v.flows, v.bytes = fs.TotalFlows, fs.TotalBytes
	for _, w := range tb.Workers {
		n := tb.Runtime.Nodes[w]
		v.containers += n.Containers()
		v.busy += n.BusyContainers()
		v.queued += n.QueuedAcquires()
		v.running += n.RunningTasks()
	}
	return v
}

// viewSink keeps reader results live so the reads are not optimised away.
var viewSink liveView

// drive steps the simulation until done reports true or the queue
// empties. A reader is due every simReadInterval of host time; it reads
// between steps and is timed from when it was due. With a tracer, steps
// are spanned in batches and the queue length is sampled after each.
func (s *simInst) drive(rr *roundResult, tr *tracer, parent int, done func() bool) {
	env, fab := s.tb.Env, s.tb.Fabric
	nextRead := time.Now().Add(simReadInterval)
	var batchStart time.Time
	var inBatch int
	var steps, pendSum, pendPeak, flowPeak, stepNs float64
	closeBatch := func() {
		if s.batch >= 0 {
			tr.end(s.batch)
			stepNs += float64(time.Since(batchStart))
		}
		inBatch, s.batch = 0, -1
	}
	for !done() {
		if tr != nil && inBatch == 0 {
			s.batch = tr.begin("sim.Env.Step", parent, -1)
			batchStart = time.Now()
		}
		if !env.Step() {
			break
		}
		if tr != nil {
			p := float64(env.Pending())
			pendSum += p
			pendPeak = max(pendPeak, p)
			flowPeak = max(flowPeak, float64(fab.ActiveFlows()))
			steps++
			if inBatch++; inBatch == stepBatch {
				closeBatch()
			}
		}
		if now := time.Now(); !now.Before(nextRead) {
			for ; !now.Before(nextRead); nextRead = nextRead.Add(simReadInterval) {
				rr.lateMs = append(rr.lateMs, ms(now.Sub(nextRead)))
				viewSink = s.live()
				rr.readMs = append(rr.readMs, ms(time.Since(nextRead)))
			}
		}
	}
	if tr != nil {
		closeBatch()
		rr.counts["steps"] += steps
		rr.counts["pending_sum"] += pendSum
		rr.counts["pending_peak"] = max(rr.counts["pending_peak"], pendPeak)
		rr.counts["active_flows_peak"] = max(rr.counts["active_flows_peak"], flowPeak)
		rr.counts["step_ns"] += stepNs
	}
}

// invoke starts an invocation and records its outcome into rr. With
// id < 0 the engine assigns the id.
func (s *simInst) invoke(rr *roundResult, tr *tracer, d *harness.Deployment, id int64, then func()) {
	rr.issued++
	t0 := time.Now()
	sp := tr.begin("engine.Invoke", s.batch, int64(rr.issued-1))
	opts := engine.InvokeOptions{Tenant: s.tenant(d)}
	done := func(r engine.Result) {
		if !s.openLoop {
			rr.invokeMs = append(rr.invokeMs, ms(time.Since(t0)))
		}
		rr.completed++
		rr.simLat = append(rr.simLat, r.Latency())
		if r.Failed {
			rr.failedOps++
		}
		if then != nil {
			then()
		}
	}
	if id < 0 {
		d.Engine.InvokeOpts(opts, done)
	} else {
		d.Engine.InvokeWithID(id, opts, done)
	}
	if s.openLoop {
		rr.invokeMs = append(rr.invokeMs, ms(time.Since(t0)))
	}
	if tr != nil {
		tr.end(sp)
		rr.counts["invoke_ns"] += float64(time.Since(t0))
		rr.counts["invoke_spans"]++
	}
}

// finish drains the queue outside the timed window, checks the run, and
// records the round's counter deltas.
func (s *simInst) finish(rr *roundResult, tr *tracer, end layerSnap) {
	env := s.tb.Env
	for env.Step() {
	}
	if tr != nil {
		for i := 0; i < idleReads; i++ {
			t0 := time.Now()
			viewSink = s.live()
			rr.idleMs = append(rr.idleMs, ms(time.Since(t0)))
		}
	}
	rr.check("completions-equal-issued", rr.completed == rr.issued, "%d of %d completed", rr.completed, rr.issued)
	rr.check("pending-zero-after-drain", env.Pending() == 0, "%d events pending", env.Pending())
	var out, in int64
	for _, n := range s.tb.Fabric.Nodes() {
		o, i := s.tb.Fabric.NodeBytes(n)
		out, in = out+o, in+i
	}
	total := s.tb.Fabric.Stats().TotalBytes
	rr.check("fabric-bytes-conserved", out == in && in == total, "out %d, in %d, total %d", out, in, total)

	a := s.start
	c := rr.counts
	c["events"] += end.events - a.events
	c["resolves"] += end.resolves - a.resolves
	c["flows"] += end.flows - a.flows
	c["msgs"] += end.msgs - a.msgs
	c["bytes"] += end.bytes - a.bytes
	c["storage_bytes"] += end.storageBytes - a.storageBytes
	c["cold"] += end.cold - a.cold
	c["warm"] += end.warm - a.warm
	c["queued"] += end.queued - a.queued
	c["shed"] += end.shed - a.shed
	c["local_gets"] += end.localGets - a.localGets
	c["remote_gets"] += end.remoteGets - a.remoteGets
	c["local_bytes"] += end.localBytes - a.localBytes
	c["remote_bytes"] += end.remoteBytes - a.remoteBytes
	c["retries"] += end.retries - a.retries
	c["deploy_ns"] += s.deployNs
	c["deploys"] += float64(len(s.deps))
	c["local_edge_bytes_last"] = s.localEdgeBytes
	c["edge_bytes_last"] = s.edgeBytes
}

func (s *simInst) close() {}

// genomeInst runs genomeRound closed-loop invocations: the next starts
// when the previous completes.
type genomeInst struct {
	*simInst
	firstID int64
}

func (g *genomeInst) run(rr *roundResult, tr *tracer, parent int) {
	g.start = g.snap()
	rr.simLat = make([]time.Duration, 0, genomeRound)
	rr.invokeMs = make([]float64, 0, genomeRound)
	d := g.deps[0]
	var next func()
	next = func() {
		if rr.issued < genomeRound {
			g.invoke(rr, tr, d, g.firstID+int64(rr.issued), next)
		}
	}
	next()
	g.drive(rr, tr, parent, func() bool { return rr.completed == genomeRound })
	g.end = g.snap()
}

func (g *genomeInst) finish(rr *roundResult, tr *tracer) { g.simInst.finish(rr, tr, g.end) }

// mixInst runs the hyperflow-mix-open arrival schedule; each benchmark
// is its own tenant.
type mixInst struct {
	*simInst
	arrivals []arrival
}

func (m *mixInst) run(rr *roundResult, tr *tracer, parent int) {
	m.start = m.snap()
	n := len(m.arrivals)
	rr.simLat = make([]time.Duration, 0, n)
	rr.invokeMs = make([]float64, 0, n)
	env := m.tb.Env
	base := env.Now()
	for _, a := range m.arrivals {
		d := m.deps[a.bench]
		env.At(base+sim.Time(a.at), func() { m.invoke(rr, tr, d, -1, nil) })
	}
	m.drive(rr, tr, parent, func() bool { return rr.completed == n })
	m.end = m.snap()
}

func (m *mixInst) finish(rr *roundResult, tr *tracer) { m.simInst.finish(rr, tr, m.end) }
