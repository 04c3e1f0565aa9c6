// Command perfbench is the repository's benchmark: it drives the
// simulator and the HTTP gateway through their public APIs on seeded
// inputs, checks the outputs, and prints end-to-end metrics (untraced) or
// per-layer metrics (traced). See README.md for the workloads and the
// metric definitions.
//
//	go run . --workload genome-closed --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// config is one invocation of the benchmark.
type config struct {
	workload      string
	seed          uint64
	placementSeed uint64
	arrivalSeed   uint64
	seconds       float64
	trace         bool
	traceOut      string
}

// workload builds fresh instances; each instance runs one timed round.
type workload struct {
	name string
	// setup builds the system under test for round input k, deploys and
	// warms it; the benchmark times it as setup_s. The same (cfg, k)
	// always yields the same simulated outcome.
	setup func(cfg config, k int, tr *tracer, parent int) (instance, error)
	// notMeasured lists per-layer metrics this workload cannot observe
	// from outside; they report 0 and print as n/a.
	notMeasured []string
}

// instance is one set-up system, ready for its timed round.
type instance interface {
	// run performs the round's fixed work, timed by the caller, and
	// records into rr.
	run(rr *roundResult, tr *tracer, parent int)
	// finish drains and checks the system after the timed window and
	// records counters and checks into rr.
	finish(rr *roundResult, tr *tracer)
	// close releases everything the instance holds.
	close()
}

var allWorkloads = []workload{genomeClosed, hyperflowMixOpen, gatewayMixed}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var cfg config
	var seed, placement, arrival uint64
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: genome-closed, hyperflow-mix-open or gateway-mixed")
	flag.Uint64Var(&seed, "seed", 1, "input seed: invocation ids, arrivals and link jitter derive from it")
	flag.Uint64Var(&placement, "placement-seed", 1, "scheduler placement seed")
	flag.Uint64Var(&arrival, "arrival-seed", 0, "hyperflow-mix-open Poisson arrival seed (0 = derived from -seed)")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "wall seconds of rounds (inputs 0-5 always run)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "traced run: spans and layer ledger file (default .bench_build/perfbench/trace-<workload>-<seed>.json)")
	flag.Parse()
	w, ok := findWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0 and --trace 0|1")
		return 2
	}
	cfg.seed, cfg.trace = seed, traceFlag == 1
	cfg.placementSeed, cfg.arrivalSeed = placement, arrival
	if cfg.arrivalSeed == 0 {
		cfg.arrivalSeed = mix(seed, 0x61727276)
	}
	if cfg.traceOut == "" {
		cfg.traceOut = fmt.Sprintf(".bench_build/perfbench/trace-%s-%d.json", w.name, seed)
	}

	var out bytes.Buffer
	fmt.Fprintf(&out, "perfbench workload=%s seed=%d placement_seed=%d arrival_seed=%d seconds=%g trace=%d\n",
		w.name, seed, cfg.placementSeed, cfg.arrivalSeed, cfg.seconds, traceFlag)
	var res result
	var err error
	if cfg.trace {
		res, err = runTraced(w, cfg, &out)
	} else {
		res, err = runUntraced(w, cfg, &out)
	}
	os.Stdout.Write(out.Bytes())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(res.json)
	if !res.correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed")
		return 1
	}
	return 0
}

// mix derives a sub-seed (splitmix64 finaliser).
func mix(seed, salt uint64) uint64 {
	z := seed ^ salt*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// result is what the final line reports.
type result struct {
	correct bool
	json    string
}

func runUntraced(w workload, cfg config, out *bytes.Buffer) (result, error) {
	ph, err := runPhase(w, cfg, cfg.seconds)
	if err != nil {
		return result{}, err
	}
	ph.printFacts(out)
	r := ph.endToEnd()
	printLines(out, endToEnd, r)
	attempted, failed := ph.tally()
	return result{correct: failed == 0, json: resultJSON(failed == 0, attempted, failed, endToEnd, r)}, nil
}

// check is one correctness assertion made on a round.
type check struct {
	name   string
	ok     bool
	detail string
}

// roundResult is everything one round measured.
type roundResult struct {
	input             int // round input index
	issued, completed int
	failedOps         int             // incomplete or failed invocations, non-2xx responses
	simLat            []time.Duration // simulated latency, completion order
	invokeMs          []float64       // host ms per invocation (or invoke request)
	readMs            []float64       // host ms per read, from when it was due
	lateMs            []float64       // how late each read started
	idleMs            []float64       // traced: reads with no invoke in flight
	checks            []check
	counts            counts

	setupSec, hostSec  float64
	allocs, allocBytes uint64
	retained           int64
	runtime            runtimeSample // runtime CPU accounting over the timed window
	profile            []byte        // traced: CPU profile of the timed window
}

func (rr *roundResult) check(name string, ok bool, format string, args ...any) {
	rr.checks = append(rr.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

// counts are per-layer counters a round read from the program. Keys
// ending in _peak merge by maximum, keys ending in _last keep the latest
// round's value, and all others sum.
type counts map[string]float64

func (c counts) merge(o counts) {
	for k, v := range o {
		switch {
		case strings.HasSuffix(k, "_peak"):
			c[k] = max(c[k], v)
		case strings.HasSuffix(k, "_last"):
			c[k] = v
		default:
			c[k] += v
		}
	}
}

func (c counts) keys() []string {
	ks := make([]string, 0, len(c))
	for k := range c {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
