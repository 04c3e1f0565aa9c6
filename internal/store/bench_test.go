package store_test

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/store"
)

func BenchmarkHybridLocal(b *testing.B) { benchHybrid(b, true) }

func BenchmarkHybridRemote(b *testing.B) { benchHybrid(b, false) }

// benchHybrid measures one FaaStore Hybrid Put+Get+Delete cycle per op.
// local keeps producer and consumer on the same worker (the in-memory
// fast path, no fabric); otherwise the data takes the remote path through
// the fair-share fabric and the database's op latency.
func benchHybrid(b *testing.B, local bool) {
	env := sim.NewEnv()
	fab := network.New(env, network.DefaultConfig())
	fab.AddNode("master", network.MBps(50), network.MBps(50))
	mems := map[string]*store.MemKV{}
	for i := 0; i < 4; i++ {
		id := "w" + strconv.Itoa(i)
		fab.AddNode(id, network.MBps(100), network.MBps(100))
		mems[id] = store.NewMemKV(env, id, 1<<30)
	}
	remote := store.NewRemoteKV(env, fab, "master", time.Millisecond)
	h := store.NewHybrid(remote, mems, false)
	consumer := "w0"
	if !local {
		consumer = "w1"
	}
	consumers := []string{consumer}
	putDone := func(store.Location, error) {}
	var key string
	getDone := func(size int64, ok bool, err error) {
		if !ok || err != nil {
			b.Fatalf("get %s: ok=%v err=%v", key, ok, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key = "k" + strconv.Itoa(i)
		h.Put("w0", key, 64<<10, consumers, putDone)
		env.Run()
		h.Get(consumer, key, getDone)
		env.Run()
		h.Delete(key)
	}
}
