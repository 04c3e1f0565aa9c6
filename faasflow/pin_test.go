package faasflow

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// The golden file testdata/pins.golden was recorded through the per-feature
// Deploy*/Run* methods this package had before Deploy and Run took options
// and a Load. Each row replays the same deployment and traffic through the
// single entry points and must reproduce every latency and counter exactly.

const pinRouterWDL = `
name: router
steps:
  - name: ingest
    function: ingest
    output: 1048576
  - name: pick
    type: switch
    choices:
      - condition: "$tier == 'premium'"
        steps:
          - name: full
            function: full
            output: 524288
      - steps:
          - name: lite
            function: lite
            output: 65536
  - name: publish
    function: publish
`

func pinRouter(t *testing.T) *Workflow {
	t.Helper()
	wf, err := WorkflowFromWDL(pinRouterWDL, map[string]FunctionSpec{
		"ingest":  {ExecSeconds: 0.05},
		"full":    {ExecSeconds: 0.8},
		"lite":    {ExecSeconds: 0.1},
		"publish": {ExecSeconds: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	return wf
}

func pinDump(c *Cluster, app *App, st Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "stats=%+v", st)
	fmt.Fprintf(&b, " fail=%+v", app.FailureStats())
	fmt.Fprintf(&b, " dur=%+v", app.DurableStats())
	fmt.Fprintf(&b, " fed=%+v", app.FederationStats())
	fmt.Fprintf(&b, " journal=%d", len(app.JournalEntries()))
	fmt.Fprintf(&b, " live=%d", c.AdmissionLive())
	fmt.Fprintf(&b, " util=%+v", c.Utilization())
	fmt.Fprintf(&b, " fp=%+v", app.FastPathStats())
	fmt.Fprintf(&b, " repl=%+v", c.ReplicationStats())
	return b.String()
}

func readPins(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pins := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, rest, _ := strings.Cut(sc.Text(), "\t")
		pins[name] = rest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pins
}

func TestRunMatchesPinnedBehaviour(t *testing.T) {
	pins := readPins(t, "testdata/pins.golden")
	fp := FastPath{DirectPassing: true, Prewarm: true, Memoize: true}
	repl := WithDurability(Durability{ReplicationFactor: 2})
	deploys := []struct {
		name string
		mode Mode
		opts []DeployOption
	}{
		{"plain", WorkerSP, nil},
		{"master", MasterSP, nil},
		{"recovery", WorkerSP, []DeployOption{WithRecovery(Recovery{})}},
		{"fast", WorkerSP, []DeployOption{WithFastPath(fp)}},
		{"durable", WorkerSP, []DeployOption{repl}},
		{"durable-fast", WorkerSP, []DeployOption{repl, WithFastPath(fp)}},
	}
	args := map[string]any{"tier": "premium"}
	loads := []struct {
		name    string
		router  bool // run the switch workflow so Args matter
		tenants bool // install gold/bronze tenant weights first
		load    Load
	}{
		{"closed", false, false, Load{N: 5, Warmup: 1}},
		{"open", false, false, Load{N: 8, Warmup: 1, PerMinute: 30}},
		{"args", true, false, Load{N: 5, Args: args}},
		{"tenant", false, true, Load{N: 5, Tenant: "gold"}},
		{"tenant-args", true, true, Load{N: 5, Args: args, Tenant: "gold"}},
		{"deadline", false, false, Load{N: 5, Deadline: 2 * time.Second}},
		{"poisson", false, false, Load{N: 8, Warmup: 1, PerMinute: 30, Poisson: true, Seed: 7}},
	}
	tenants := AdmissionConfig{Tenants: map[string]TenantConfig{"gold": {Weight: 3}, "bronze": {Weight: 1}}}
	check := func(name, got string) {
		t.Helper()
		want, ok := pins[name]
		if !ok {
			t.Errorf("%s: no pinned row", name)
			return
		}
		delete(pins, name)
		if got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
	for _, d := range deploys {
		for _, l := range loads {
			c := NewCluster(WithSeed(1))
			if l.tenants {
				if err := c.SetAdmission(tenants); err != nil {
					t.Fatal(err)
				}
			}
			wf := Benchmark("IR")
			if l.router {
				wf = pinRouter(t)
			}
			app, err := c.Deploy(wf, d.mode, d.opts...)
			if err != nil {
				t.Fatal(err)
			}
			st, err := app.Run(l.load)
			if err != nil {
				t.Fatal(err)
			}
			check(d.name+"/"+l.name, pinDump(c, app, st.Stats))
		}
	}

	c := NewCluster(WithSeed(1))
	app, err := c.Deploy(Benchmark("IR"), WorkerSP, WithFederation(FederationOptions{}), repl)
	if err != nil {
		t.Fatal(err)
	}
	st, err := app.Run(Load{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	check("federated/closed", pinDump(c, app, st.Stats))

	for _, dl := range []time.Duration{0, 3 * time.Second} {
		c := NewCluster(WithSeed(1))
		if err := c.SetAdmission(AdmissionConfig{RatePerSec: 2, Burst: 2, MaxConcurrent: 3}); err != nil {
			t.Fatal(err)
		}
		app, err := c.Deploy(Benchmark("IR"), WorkerSP)
		if err != nil {
			t.Fatal(err)
		}
		st, err := app.Run(Load{N: 20, PerMinute: 300, Deadline: dl, Admit: true})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("plain/admitted-%v", dl), fmt.Sprintf("%s offered=%d admitted=%d rejected=%d goodput=%d deadlined=%d failed=%d",
			pinDump(c, app, st.Stats), st.Offered, st.Admitted, st.Rejected, st.Goodput, st.Deadlined, st.Failed))
	}
	// Faults: the recovery defaults decide when stranded work re-issues.
	for _, kind := range []struct {
		name string
		opts []DeployOption
	}{
		{"recovery", []DeployOption{WithRecovery(Recovery{})}},
		{"durable", []DeployOption{repl}},
		{"federated", []DeployOption{WithFederation(FederationOptions{}), repl}},
	} {
		c := NewCluster(WithSeed(1))
		app, err := c.Deploy(Benchmark("IR"), WorkerSP, kind.opts...)
		if err != nil {
			t.Fatal(err)
		}
		sched := FaultSchedule{{Kind: NodeDown, Node: pinVictim(app), At: 2 * time.Second}}
		if kind.name == "durable" {
			sched = append(sched, Fault{Kind: EngineDown, At: 6 * time.Second, Duration: 2 * time.Second})
		}
		if err := c.InjectFaults(sched); err != nil {
			t.Fatal(err)
		}
		l := Load{N: 8, Warmup: 1}
		if app.Federated() {
			l.Warmup = 0
		}
		st, err := app.Run(l)
		if err != nil {
			t.Fatal(err)
		}
		check(kind.name+"/faults", pinDump(c, app, st.Stats))
	}
	for name := range pins {
		t.Errorf("%s: pinned row not replayed", name)
	}
}

// pinVictim picks the first worker, in name order, that hosts a step.
func pinVictim(app *App) string {
	var ws []string
	for _, w := range app.Placement() {
		ws = append(ws, w)
	}
	sort.Strings(ws)
	return ws[0]
}

// Every combination of the four deploy options deploys and runs: closed
// and open loop complete every invocation and leave no admission slot held.
func TestEveryDeployOptionCombinationRuns(t *testing.T) {
	for mask := 0; mask < 16; mask++ {
		var opts []DeployOption
		var name []string
		if mask&1 != 0 {
			opts = append(opts, WithRecovery(Recovery{}))
			name = append(name, "recovery")
		}
		if mask&2 != 0 {
			opts = append(opts, WithDurability(Durability{ReplicationFactor: 2}))
			name = append(name, "durable")
		}
		if mask&4 != 0 {
			opts = append(opts, WithFastPath(FastPath{DirectPassing: true, Prewarm: true}))
			name = append(name, "fast")
		}
		if mask&8 != 0 {
			opts = append(opts, WithFederation(FederationOptions{Members: 2}))
			name = append(name, "federated")
		}
		label := strings.Join(name, "+")
		if label == "" {
			label = "plain"
		}
		t.Run(label, func(t *testing.T) {
			c := NewCluster(WithSeed(1))
			app, err := c.Deploy(Benchmark("IR"), WorkerSP, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if app.Durable() != (mask&(2|8) != 0) || app.Federated() != (mask&8 != 0) {
				t.Fatalf("durable=%v federated=%v", app.Durable(), app.Federated())
			}
			for _, l := range []Load{{N: 3, Warmup: 1}, {N: 3, PerMinute: 30, Tenant: "gold", Admit: true}} {
				st, err := app.Run(l)
				if err != nil {
					t.Fatal(err)
				}
				if st.Count != 3 || st.Goodput != 3 || st.Admitted != 3 {
					t.Fatalf("load %+v: %+v", l, st)
				}
			}
			if live := c.AdmissionLive(); live != 0 {
				t.Fatalf("AdmissionLive = %d after the runs", live)
			}
		})
	}
}

func TestRunRejectsMalformedLoads(t *testing.T) {
	app, err := NewCluster().Deploy(Benchmark("IR"), WorkerSP)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []Load{{N: -1}, {N: 1, Warmup: -1}, {N: 1, PerMinute: -1}, {N: 1, Poisson: true}} {
		if _, err := app.Run(l); err == nil {
			t.Errorf("Run(%+v) did not error", l)
		}
	}
}
