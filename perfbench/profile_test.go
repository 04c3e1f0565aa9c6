package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var burnSink float64

//go:noinline
func burnCPU(d time.Duration) {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	burnSink = x
}

func TestParseCPUProfileFindsLeaf(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".burnCPU") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample in burnCPU among %d samples", len(samples))
	}
	split := splitByLayer(samples)
	if split.Samples == 0 || split.SelfPct["perfbench"] == 0 {
		t.Fatalf("split = %+v", split)
	}
}

func TestFuncPackageAndLayer(t *testing.T) {
	for name, want := range map[string]string{
		"repro/internal/sim.(*Env).Step":           "sim",
		"container/heap.down":                      "sim",
		"repro/internal/network.(*Fabric).resolve": "network",
		"net/http.(*conn).serve.func1":             "net_http",
		"runtime.mallocgc":                         "runtime",
		"encoding/json.(*decodeState).object":      "other:encoding/json",
		"repro/faasflow.(*App).RunOpts":            "faasflow",
	} {
		if got := packageLayer(funcPackage(name)); got != want {
			t.Errorf("layer of %s = %q, want %q", name, got, want)
		}
	}
}
