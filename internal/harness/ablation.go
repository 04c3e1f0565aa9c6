package harness

import (
	"fmt"
	"time"

	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/workloads"
)

// closedLoopMean deploys bench (transformed by shape, when set) on a
// fresh testbed for sys at bw MB/s of storage bandwidth — hash-placed when
// hashed — applies adjust, and returns the mean latency of n closed-loop
// invocations after one warm-up.
func closedLoopMean(sys System, bw float64, bench string, shape func(*workloads.Benchmark) (*workloads.Benchmark, error),
	hashed bool, adjust func(*Testbed), n int) (time.Duration, error) {
	b := workloads.ByName(bench)
	if b == nil {
		return 0, fmt.Errorf("unknown benchmark %q", bench)
	}
	var err error
	if shape != nil {
		if b, err = shape(b); err != nil {
			return 0, err
		}
	}
	tb := newSystemTestbed(sys, network.MBps(bw))
	deploy := tb.Deploy
	if hashed {
		deploy = tb.DeployHashed
	}
	d, err := deploy(b, engine.Options{Mode: sys.mode(), Data: engine.DataStore})
	if err != nil {
		return 0, err
	}
	if adjust != nil {
		adjust(tb)
	}
	return ClosedLoop(tb.Env, d.Engine, 1, n).Mean(), nil
}

// ablationGrouping isolates the Graph Scheduler's contribution: the same
// benchmark under WorkerSP + FaaStore, once with Algorithm 1 grouping and
// once with hash partitioning, returning mean closed-loop latencies.
func ablationGrouping(bench string, invocations int) (algo, hash time.Duration, err error) {
	if algo, err = closedLoopMean(FaaSFlowFaaStore, 50, bench, nil, false, nil, invocations); err != nil {
		return 0, 0, err
	}
	hash, err = closedLoopMean(FaaSFlowFaaStore, 50, bench, nil, true, nil, invocations)
	return algo, hash, err
}

// ablationNetwork isolates the bandwidth-contention model: the same
// benchmark under HyperFlow once on the paper's 50 MB/s shared storage
// link and once on an effectively infinite link (contention-free, pure
// latency). The gap is the share of the baseline's pain that comes from
// modeling bandwidth at all — the justification for the fair-share fabric.
func ablationNetwork(bench string, invocations int) (shared, infinite time.Duration, err error) {
	if shared, err = closedLoopMean(HyperFlow, 50, bench, nil, false, nil, invocations); err != nil {
		return 0, 0, err
	}
	infinite, err = closedLoopMean(HyperFlow, 1e6, bench, nil, false, nil, invocations)
	return shared, infinite, err
}

// sequentialVsDAG contrasts a benchmark's DAG execution with the
// linearized function sequence most vendors support (paper §2.1: "Most
// cloud vendors only support sequential workflow, which is a much simpler
// execution model"). The sequence chains the same tasks in topological
// order, so all parallelism is lost; the gap is what DAG support buys.
func sequentialVsDAG(bench string, invocations int) (dagMean, seqMean time.Duration, err error) {
	if dagMean, err = closedLoopMean(FaaSFlowFaaStore, 50, bench, nil, false, nil, invocations); err != nil {
		return 0, 0, err
	}
	seqMean, err = closedLoopMean(FaaSFlowFaaStore, 50, bench, linearize, false, nil, invocations)
	return dagMean, seqMean, err
}

// linearize rebuilds a benchmark as a topological-order chain of the same
// task nodes, passing each node's heaviest output payload down the chain.
func linearize(b *workloads.Benchmark) (*workloads.Benchmark, error) {
	order, err := b.Graph.TopoSort()
	if err != nil {
		return nil, err
	}
	g := dag.New(b.Name + "-seq")
	var prev dag.NodeID = -1
	for _, id := range order {
		n := b.Graph.Node(id)
		if n.Kind != dag.KindTask {
			continue
		}
		cur := g.AddTask(n.Name, n.Function)
		if prev >= 0 {
			var bytes int64
			for _, ei := range b.Graph.OutEdges(id) {
				if bts := b.Graph.Edges()[ei].Bytes; bts > bytes {
					bytes = bts
				}
			}
			g.Connect(prev, cur, bytes)
		}
		prev = cur
	}
	seq := &workloads.Benchmark{
		Name:            b.Name + "-seq",
		Title:           b.Title + " (linearized)",
		Graph:           g,
		Functions:       b.Functions,
		MonolithicBytes: b.MonolithicBytes,
		Scientific:      b.Scientific,
	}
	return seq, seq.Validate()
}

// quotaAblation holds the mean latency of a benchmark under three FaaStore
// quota policies.
type quotaAblation struct {
	// Adaptive is the paper's reclamation quota (Equations 1-2).
	Adaptive time.Duration
	// Tiny caps every worker's in-memory store at 1 MB, forcing nearly all
	// data back to the remote store.
	Tiny time.Duration
	// Unlimited removes the cap entirely (the OOM-risk configuration the
	// adaptive policy exists to avoid).
	Unlimited time.Duration
}

// ablationQuota isolates the quota policy's contribution under WorkerSP.
func ablationQuota(bench string, invocations int) (quotaAblation, error) {
	withQuota := func(bytes int64) func(*Testbed) {
		return func(tb *Testbed) {
			for _, m := range tb.Mems {
				m.SetQuota(bytes)
			}
		}
	}
	var out quotaAblation
	var err error
	for _, v := range []struct {
		into   *time.Duration
		adjust func(*Testbed)
	}{{&out.Adaptive, nil}, {&out.Tiny, withQuota(1 << 20)}, {&out.Unlimited, withQuota(1 << 50)}} {
		if *v.into, err = closedLoopMean(FaaSFlowFaaStore, 50, bench, nil, false, v.adjust, invocations); err != nil {
			return out, err
		}
	}
	return out, nil
}

// ablationsReport runs the four design-choice ablations DESIGN.md calls
// out, Vid at n/10 and Cyc at n/20 invocations, and gates each on the
// direction EXPERIMENTS.md reports.
func ablationsReport(n int) (Report, error) {
	inv := scaled(n, 20, 1)
	algo, hash, err := ablationGrouping("Vid", scaled(n, 10, 1))
	if err != nil {
		return Report{}, err
	}
	shared, free, err := ablationNetwork("Cyc", inv)
	if err != nil {
		return Report{}, err
	}
	dagMean, seqMean, err := sequentialVsDAG("Cyc", inv)
	if err != nil {
		return Report{}, err
	}
	quota, err := ablationQuota("Cyc", inv)
	if err != nil {
		return Report{}, err
	}
	t := metrics.NewTable("ablation", "bench", "variant", "mean latency")
	for _, r := range []struct {
		ablation, bench, variant string
		mean                     time.Duration
	}{
		{"grouping", "Vid", "Algorithm 1", algo},
		{"grouping", "Vid", "hash partition", hash},
		{"network", "Cyc", "shared 50MB/s link", shared},
		{"network", "Cyc", "contention-free link", free},
		{"execution", "Cyc", "DAG", dagMean},
		{"execution", "Cyc", "linearized sequence", seqMean},
		{"quota", "Cyc", "adaptive", quota.Adaptive},
		{"quota", "Cyc", "tiny (1MB)", quota.Tiny},
		{"quota", "Cyc", "unlimited", quota.Unlimited},
	} {
		t.AddRow(r.ablation, r.bench, r.variant, metrics.Seconds(r.mean))
	}
	rep := Report{Table: t}
	switch {
	case algo >= hash:
		rep.Gate = fmt.Errorf("ablations: Algorithm 1 (%s) does not beat hash placement (%s)", metrics.Seconds(algo), metrics.Seconds(hash))
	case free >= shared:
		rep.Gate = fmt.Errorf("ablations: the contention-free link (%s) does not beat the shared one (%s)", metrics.Seconds(free), metrics.Seconds(shared))
	case dagMean >= seqMean:
		rep.Gate = fmt.Errorf("ablations: the DAG (%s) does not beat the linearized sequence (%s)", metrics.Seconds(dagMean), metrics.Seconds(seqMean))
	case quota.Adaptive > quota.Unlimited || quota.Adaptive >= quota.Tiny:
		rep.Gate = fmt.Errorf("ablations: adaptive quota %s against unlimited %s and tiny %s",
			metrics.Seconds(quota.Adaptive), metrics.Seconds(quota.Unlimited), metrics.Seconds(quota.Tiny))
	}
	return rep, nil
}
