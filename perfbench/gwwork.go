package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/faasflow"
	"repro/internal/gateway"
)

const (
	// gatewayRound is the closed-loop invoke requests (n=1 each) in one
	// gateway-mixed round.
	gatewayRound = 300
	// idleReads is how many reads a traced round makes with no invocation
	// in flight.
	idleReads = 10
	// gatewayWarmup is the invoke requests (n=1) a set-up makes.
	gatewayWarmup = 2
)

// gatewayTenants is the request mix: three gold requests per bronze one.
var gatewayTenants = []string{"gold", "gold", "gold", "bronze"}

// gatewayMixed drives the HTTP gateway (FaaStore, obs, durable Gen,
// tenants gold=3,bronze=1): closed-loop invokes on one connection and
// open-loop scrapes on another, the only path through HTTP/JSON,
// admission, the journal and obs retention.
var gatewayMixed = workload{
	name: "gateway-mixed",
	setup: func(cfg config, k int, tr *tracer, parent int) (instance, error) {
		return newGatewayInst(cfg, k, tr, parent)
	},
	notMeasured: []string{
		"sim.events_per_inv", "sim.pending_peak", "sim.pending_mean", "sim.step_ns",
		"network.resolves_per_inv", "network.active_flows_peak", "network.us_per_resolve",
		"engine.invoke_us",
	},
}

// gatewayInst is a gateway server on a loopback listener with two client
// connections: one for invokes, one for reads.
type gatewayInst struct {
	base      string
	srv       *http.Server
	served    chan struct{} // closed when Serve returns
	invoker   *http.Client
	reader    *http.Client
	deployNs  float64
	localized float64 // fraction of edge bytes kept on one worker
	// counters after warm-up
	start      prom
	startAdmit admissionTotals
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
}

// storageMBps is round input k's storage link: 50 MB/s within ±2%. Each
// invoke request runs its invocation on a drained cluster, so a
// simulated latency depends only on the invocation id and the cluster;
// the seed varies the cluster, as the gateway assigns the ids.
func storageMBps(seed uint64, k int) float64 {
	u := float64(mix(seed, uint64(k)+1)>>11) / (1 << 53)
	return 50 * (0.98 + 0.04*u)
}

func newGatewayInst(cfg config, k int, tr *tracer, parent int) (*gatewayInst, error) {
	sp := tr.begin("gateway.New", parent, -1)
	srv := gateway.New(gateway.Config{
		FaaStore:           true,
		StorageBandwidthMB: storageMBps(cfg.seed, k),
		Seed:               cfg.placementSeed,
		AdmissionTenants: map[string]faasflow.TenantConfig{
			"gold":   {Weight: 3},
			"bronze": {Weight: 1},
		},
	})
	tr.end(sp)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	g := &gatewayInst{
		base:    "http://" + ln.Addr().String(),
		srv:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served:  make(chan struct{}),
		invoker: newClient(),
		reader:  newClient(),
	}
	go func() {
		defer close(g.served)
		_ = g.srv.Serve(ln) // returns ErrServerClosed after close
	}()
	fail := func(err error) (*gatewayInst, error) {
		g.close()
		return nil, err
	}

	sp = tr.begin("http POST /workflows", parent, -1)
	t0 := time.Now()
	status, body, err := g.do(g.invoker, http.MethodPost, "/workflows", "", `{"benchmark":"Gen","durable":true}`)
	g.deployNs = float64(time.Since(t0))
	tr.end(sp)
	if err != nil {
		return fail(err)
	}
	if status != http.StatusCreated {
		return fail(fmt.Errorf("deploy: HTTP %d: %s", status, body))
	}
	var info struct {
		LocalizedPercent float64 `json:"localizedPercent"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return fail(fmt.Errorf("deploy response: %w", err))
	}
	g.localized = info.LocalizedPercent / 100

	sp = tr.begin("warmup", parent, -1)
	for i := 0; i < gatewayWarmup; i++ {
		status, body, err := g.do(g.invoker, http.MethodPost, "/workflows/Gen/invoke", "gold", `{"n":1}`)
		if err != nil {
			return fail(err)
		}
		if status != http.StatusOK {
			return fail(fmt.Errorf("warm-up invoke: HTTP %d: %s", status, body))
		}
	}
	tr.end(sp)
	if g.start, err = g.metrics(); err != nil {
		return fail(err)
	}
	if g.startAdmit, err = g.admission(); err != nil {
		return fail(err)
	}
	return g, nil
}

// do sends one request and reads the whole response body.
func (g *gatewayInst) do(c *http.Client, method, path, tenant, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, g.base+path, rd)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if tenant != "" {
		req.Header.Set("Tenant", tenant)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp.StatusCode, data, nil
}

// getJSON reads path and decodes its 200 response into v.
func (g *gatewayInst) getJSON(path string, v any) error {
	status, body, err := g.do(g.reader, http.MethodGet, path, "", "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, status)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

func (g *gatewayInst) metrics() (prom, error) {
	status, body, err := g.do(g.reader, http.MethodGet, "/metrics", "", "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", status)
	}
	return parseProm(body)
}

// readerLog is what the read loop measured; it is merged into the round
// after the loop has exited.
type readerLog struct {
	readMs, lateMs       []float64
	failed               int
	metricsBytes, scrape float64
}

// readLoop scrapes /metrics and /cluster alternately, one due every
// readInterval from start, each timed from when it was due, until stop
// closes.
func (g *gatewayInst) readLoop(start time.Time, stop <-chan struct{}, tr *tracer, parent int, log *readerLog) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	paths := []string{"/metrics", "/cluster"}
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k+1) * readInterval)
		select {
		case <-stop:
			return
		default:
		}
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		}
		log.lateMs = append(log.lateMs, ms(time.Since(due)))
		path := paths[k%2]
		sp := tr.begin("http GET "+path, parent, int64(k))
		status, body, err := g.do(g.reader, http.MethodGet, path, "", "")
		tr.end(sp)
		log.readMs = append(log.readMs, ms(time.Since(due)))
		if err != nil || status != http.StatusOK {
			log.failed++
			continue
		}
		if path == "/metrics" {
			log.metricsBytes += float64(len(body))
			log.scrape++
		}
	}
}

func (g *gatewayInst) run(rr *roundResult, tr *tracer, parent int) {
	rr.simLat = make([]time.Duration, 0, gatewayRound)
	rr.invokeMs = make([]float64, 0, gatewayRound)
	log := &readerLog{
		readMs: make([]float64, 0, 4096),
		lateMs: make([]float64, 0, 4096),
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.readLoop(time.Now(), stop, tr, parent, log)
	}()
	for i := 0; i < gatewayRound; i++ {
		tenant := gatewayTenants[i%len(gatewayTenants)]
		t0 := time.Now()
		sp := tr.begin("http POST /workflows/Gen/invoke", parent, int64(i))
		status, body, err := g.do(g.invoker, http.MethodPost, "/workflows/Gen/invoke", tenant, `{"n":1}`)
		tr.end(sp)
		rr.invokeMs = append(rr.invokeMs, ms(time.Since(t0)))
		rr.issued++
		if err != nil || status != http.StatusOK {
			rr.failedOps++
			continue
		}
		var resp struct {
			Count  int     `json:"count"`
			MeanMs float64 `json:"meanMs"`
		}
		if json.Unmarshal(body, &resp) != nil || resp.Count != 1 {
			rr.failedOps++
			continue
		}
		rr.completed++
		rr.simLat = append(rr.simLat, time.Duration(math.Round(resp.MeanMs*1e6)))
	}
	close(stop)
	wg.Wait()
	rr.readMs, rr.lateMs = log.readMs, log.lateMs
	rr.failedOps += log.failed
	rr.counts["metrics_bytes"] += log.metricsBytes
	rr.counts["metrics_scrapes"] += log.scrape
}

// clusterView is the part of GET /cluster the benchmark reads.
type clusterView struct {
	NetworkBytes float64 `json:"networkBytes"`
	Failures     struct {
		Retries float64 `json:"retries"`
	} `json:"failures"`
	Tenants []struct {
		Shed float64 `json:"shed"`
	} `json:"tenants"`
}

// admissionTotals sums GET /tenants over the tenants.
type admissionTotals struct{ live, admitted, rejected float64 }

func (g *gatewayInst) admission() (admissionTotals, error) {
	var v struct {
		Admission []struct {
			Live                float64 `json:"live"`
			Admitted            float64 `json:"admitted"`
			RejectedRate        float64 `json:"rejectedRate"`
			RejectedConcurrency float64 `json:"rejectedConcurrency"`
			RejectedGlobal      float64 `json:"rejectedGlobal"`
		} `json:"admission"`
	}
	var t admissionTotals
	if err := g.getJSON("/tenants", &v); err != nil {
		return t, err
	}
	for _, a := range v.Admission {
		t.live += a.Live
		t.admitted += a.Admitted
		t.rejected += a.RejectedRate + a.RejectedConcurrency + a.RejectedGlobal
	}
	return t, nil
}

// journalView is the part of GET /workflows/Gen/journal the benchmark
// reads.
type journalView struct {
	Stats struct {
		Journal struct {
			Appends, Committed, DupDrops, Syncs float64
		}
	} `json:"stats"`
}

func (g *gatewayInst) finish(rr *roundResult, tr *tracer) {
	c := rr.counts
	if tr != nil {
		for i := 0; i < idleReads; i++ {
			t0 := time.Now()
			status, _, err := g.do(g.reader, http.MethodGet, "/metrics", "", "")
			if err == nil && status == http.StatusOK {
				rr.idleMs = append(rr.idleMs, ms(time.Since(t0)))
			}
		}
	}
	end, err := g.metrics()
	var cv clusterView
	var jv journalView
	var adm admissionTotals
	if err == nil {
		var aerr error
		adm, aerr = g.admission()
		err = errors.Join(aerr, g.getJSON("/cluster", &cv), g.getJSON("/workflows/Gen/journal", &jv))
	}
	rr.check("counters-readable", err == nil, "%v", err)
	if err != nil {
		return
	}
	rr.check("completions-equal-issued", rr.completed == rr.issued, "%d of %d completed", rr.completed, rr.issued)
	c["admitted"] += adm.admitted - g.startAdmit.admitted
	c["rejected"] += adm.rejected - g.startAdmit.rejected
	rr.check("no-live-admission-slots", adm.live == 0, "%g live slots", adm.live)
	j := jv.Stats.Journal
	rr.check("journal-no-dup-drops", j.DupDrops == 0, "%g duplicate appends dropped", j.DupDrops)
	steps := end.sum("faasflow_steps_total", `state="completed"`)
	rr.check("journal-committed-equals-steps", j.Committed == steps, "%g committed, %g steps completed", j.Committed, steps)
	flowBytes, msgBytes := end.sum("faasflow_flow_bytes_total"), end.sum("faasflow_msg_bytes_total")
	rr.check("fabric-bytes-conserved", flowBytes+msgBytes == cv.NetworkBytes,
		"flows %g + msgs %g != fabric %g", flowBytes, msgBytes, cv.NetworkBytes)

	a := g.start
	delta := func(name string, labels ...string) float64 { return end.sum(name, labels...) - a.sum(name, labels...) }
	c["obs_events"] += delta("faasflow_obs_events_total")
	c["flows"] += delta("faasflow_flows_total")
	c["msgs"] += delta("faasflow_msgs_total")
	c["bytes"] += delta("faasflow_flow_bytes_total") + delta("faasflow_msg_bytes_total")
	c["storage_bytes"] += delta("faasflow_flow_bytes_total", `from="master"`) + delta("faasflow_flow_bytes_total", `to="master"`)
	c["cold"] += delta("faasflow_container_events_total", `event="cold_start"`)
	c["warm"] += delta("faasflow_container_events_total", `event="warm_reuse"`)
	c["queued"] += delta("faasflow_container_events_total", `event="queued"`)
	c["local_gets"] += delta("faasflow_store_ops_total", `op="get"`, `tier="memory"`)
	c["remote_gets"] += delta("faasflow_store_ops_total", `op="get"`, `tier="remote"`)
	c["local_bytes"] += delta("faasflow_store_bytes_total", `op="get"`, `tier="memory"`)
	c["remote_bytes"] += delta("faasflow_store_bytes_total", `op="get"`, `tier="remote"`)
	c["retries"] += cv.Failures.Retries
	for _, t := range cv.Tenants {
		c["shed"] += t.Shed
	}
	// The journal's counters cover the deployment's life, warm-up included.
	c["journal_invocations"] += float64(rr.issued + gatewayWarmup)
	c["journal_appends"] += j.Appends
	c["journal_committed"] += j.Committed
	c["journal_syncs"] += j.Syncs
	c["journal_dup_drops"] += j.DupDrops
	c["admission_live_last"] = adm.live
	c["deploy_ns"] += g.deployNs
	c["deploys"]++
	c["local_edge_bytes_last"] = g.localized
	c["edge_bytes_last"] = 1
}

func (g *gatewayInst) close() {
	_ = g.srv.Close() // the listener's close error has no bearing on the results
	<-g.served
	g.invoker.CloseIdleConnections()
	g.reader.CloseIdleConnections()
}

// prom is a parsed Prometheus text exposition: series -> value.
type prom map[string]float64

func parseProm(data []byte) (prom, error) {
	p := prom{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: bad line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q", line)
		}
		p[line[:i]] += v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return p, nil
}

// sum adds every series of metric name whose labels contain all of
// labels.
func (p prom) sum(name string, labels ...string) float64 {
	var total float64
next:
	for series, v := range p {
		n := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			n = series[:i]
		}
		if n != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(series, l) {
				continue next
			}
		}
		total += v
	}
	return total
}
