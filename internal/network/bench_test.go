package network_test

import (
	"strconv"
	"testing"

	"repro/internal/network"
	"repro/internal/sim"
)

// BenchmarkFairShare runs one batch of 32 concurrent transfers into a
// single bottleneck sink per op: 8 sources fan 4 flows each into it, the
// many-writers-one-storage-node contention the paper studies. Every flow
// join and completion re-runs the max-min solver over the active set.
func BenchmarkFairShare(b *testing.B) {
	env := sim.NewEnv()
	fab := network.New(env, network.DefaultConfig())
	fab.AddNode("sink", network.MBps(100), network.MBps(100))
	sources := make([]string, 8)
	for i := range sources {
		sources[i] = "src" + strconv.Itoa(i)
		fab.AddNode(sources[i], network.MBps(100), network.MBps(100))
	}
	done := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range sources {
			for j := 0; j < 4; j++ {
				fab.Send(src, "sink", 1<<20, done)
			}
		}
		env.Run()
	}
	b.StopTimer()
	b.ReportMetric(float64(fab.Resolves())/float64(b.N), "resolves/op")
}
