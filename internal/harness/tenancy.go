package harness

import (
	"fmt"
	"math"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// This file drives the multi-tenant noisy-neighbor scenario: well-behaved
// tenants each offering exactly their fair share of the cluster's measured
// saturation rate, plus one noisy tenant offering tenancyNoisyFactor times
// its share. With per-tenant weighted admission buckets and weighted-fair
// Acquire queueing, the noisy tenant must be clipped to its slice at the
// front door while every well-behaved tenant keeps its goodput — zero
// starvation — and the aggregate goodput must match what a single
// untenanted stream achieves at the same offered rate (isolation costs
// nothing).

// Tenancy sizes; the deadline, queue bound and probe are the overload
// scenario's.
const (
	// tenancyWindow is longer than the overload window: each well-behaved
	// tenant offers only 1/(tenancyTenants+1) of saturation, and the
	// zero-starvation gate needs per-tenant counts coarse truncation can't
	// dominate.
	tenancyWindow      = 200 * time.Second
	tenancyTenants     = 20 // well-behaved tenants; one noisy tenant is added
	tenancyNoisyFactor = 10 // noisy offered load as a multiple of its fair share
	// A well-behaved tenant must keep tenancyTenantFrac of its offered
	// count as goodput, and the aggregate goodput must stay within
	// tenancyAggTol of the single-tenant reference.
	tenancyTenantFrac = 0.9
	tenancyAggTol     = 0.1
)

// noisyTenant is the misbehaving tenant's identity in the scenario.
const noisyTenant = "noisy"

// tenantOutcome is one tenant's slice of a tenancy run.
type tenantOutcome struct {
	tenant string
	noisy  bool
	outcome
}

// tenancyRow is one mode's noisy-neighbor run.
type tenancyRow struct {
	mode     engine.Mode
	satRate  float64 // measured saturation, arrivals/sec
	fairRate float64 // satRate / (tenancyTenants + 1)
	aggRate  float64 // total offered arrivals/sec across tenants
	tenants  []tenantOutcome
	// aggGoodput sums goodput across every tenant; refGoodput is the
	// single-tenant reference (an untenanted admitted stream at aggRate on
	// an identical fresh testbed) the isolation-overhead gate compares it
	// against.
	aggGoodput int
	refGoodput int
	shed       int64 // Acquire-queue rejections across nodes
	snapshot   *obs.Snapshot
}

func tenancyReport(int) (Report, error) {
	rows, err := tenancy()
	if err != nil {
		return Report{}, err
	}
	rep := Report{Table: renderTenancy(rows), Gate: checkTenancy(rows)}
	for _, r := range rows {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s: saturation %.2f/s, fair share %.3f/s per tenant, aggregate goodput %d (single-tenant reference %d), shed %d",
			r.mode, r.satRate, r.fairRate, r.aggGoodput, r.refGoodput, r.shed))
		rep.addSnapshot("tenancy-"+r.mode.String(), r.snapshot)
	}
	return rep, nil
}

// tenantNames returns the scenario's tenant identities in deterministic
// order: well-behaved tenants first, the noisy tenant last.
func tenantNames() []string {
	names := make([]string, 0, tenancyTenants+1)
	for i := 0; i < tenancyTenants; i++ {
		names = append(names, fmt.Sprintf("tenant-%02d", i))
	}
	return append(names, noisyTenant)
}

// tenancy runs the noisy-neighbor scenario once per mode. The saturation
// probe runs once per mode and fixes every tenant's fair share; the tenancy
// run and the single-tenant reference each get a fresh testbed so they are
// independent.
func tenancy() ([]tenancyRow, error) {
	var rows []tenancyRow
	for _, mode := range scenarioModes {
		sat, err := saturation(mode)
		if err != nil {
			return nil, err
		}
		row, err := tenancyOne(mode, sat)
		if err != nil {
			return nil, err
		}
		// Single-tenant reference: one untenanted admitted stream at the
		// same aggregate offered rate, same admission rate and cap — the
		// goodput a non-isolated front door achieves with the same demand.
		ref, err := overloadOne(mode, sat, row.aggRate/sat, tenancyWindow, true)
		if err != nil {
			return nil, err
		}
		row.refGoodput = ref.goodput
		rows = append(rows, row)
	}
	return rows, nil
}

func tenancyOne(mode engine.Mode, satRate float64) (tenancyRow, error) {
	bench := workloads.ByName(scenarioBench)
	tb := overloadTestbed()
	bus, log := recordedBus(tb)
	if err := armBreaker(tb, bus); err != nil {
		return tenancyRow{}, err
	}
	d, err := tb.Deploy(bench, overloadOptions(mode))
	if err != nil {
		return tenancyRow{}, fmt.Errorf("harness: tenancy deploy %s/%s: %w", scenarioBench, mode, err)
	}

	names := tenantNames()
	total := len(names)
	fairRate := satRate / float64(total)

	// Every tenant weighs 1: the fair share is an equal slice. The rate
	// buckets clip each tenant to its slice at the front door; the
	// per-tenant concurrency override stays generous (the probe size) so
	// isolation under this scenario is enforced by rate, not by in-flight
	// caps.
	tenantCfgs := make(map[string]admission.TenantConfig, total)
	weights := make(map[string]float64, total)
	for _, name := range names {
		// Burst 2: arrivals at exactly the bucket's refill rate land a hair
		// under one token apart once intervals truncate to integer
		// nanoseconds, and a burst-1 bucket would alternate admit/reject on
		// that knife edge.
		tenantCfgs[name] = admission.TenantConfig{Weight: 1, Burst: 2, MaxConcurrent: overloadProbe}
		weights[name] = 1
	}
	tb.SetTenantWeights(weights)
	ctl, err := admission.New(tb.Env, admission.Config{
		RatePerSec:    satRate,
		MaxConcurrent: 2 * overloadProbe,
		Tenants:       tenantCfgs,
	})
	if err != nil {
		return tenancyRow{}, err
	}
	ctl.SetBus(bus)

	outcomes := make([]tenantOutcome, total)
	aggRate := 0.0
	for idx, name := range names {
		o := &outcomes[idx]
		o.tenant, o.noisy = name, name == noisyTenant
		rate := fairRate
		if o.noisy {
			rate = fairRate * tenancyNoisyFactor
		}
		aggRate += rate
		o.offered = max(int(rate*tenancyWindow.Seconds()), 1)
		interval := time.Duration(float64(time.Second) / rate)
		// Stagger tenant streams across one fair-share interval so the
		// arrival pattern interleaves deterministically instead of every
		// tenant firing on the same instant.
		phase := time.Duration(float64(interval) * float64(idx) / float64(total))
		stagger(tb.Env, phase, interval, o.offered, func() {
			release, err := ctl.AdmitTenant(bench.Name, o.tenant)
			if err != nil {
				o.rejected++
				return
			}
			o.admitted++
			d.Engine.InvokeOpts(engine.InvokeOptions{
				Deadline: tb.Env.Now() + sim.Time(overloadDeadline),
				Tenant:   o.tenant,
			}, func(r engine.Result) {
				release()
				o.resolve(r)
			})
		})
	}
	tb.Env.Run()

	agg := 0
	for _, o := range outcomes {
		agg += o.goodput
	}
	var shed int64
	for _, w := range tb.Workers {
		shed += tb.Runtime.Nodes[w].Stats().Shed
	}
	return tenancyRow{
		mode:       mode,
		satRate:    satRate,
		fairRate:   fairRate,
		aggRate:    aggRate,
		tenants:    outcomes,
		aggGoodput: agg,
		shed:       shed,
		snapshot: obs.BuildSnapshot(log, map[string]string{
			"scenario": "tenancy",
			"bench":    scenarioBench,
			"mode":     mode.String(),
			"tenants":  fmt.Sprintf("%d", tenancyTenants),
			"noisy":    fmt.Sprintf("%g", float64(tenancyNoisyFactor)),
		}),
	}, nil
}

func renderTenancy(rows []tenancyRow) *metrics.Table {
	t := metrics.NewTable("mode", "tenant", "offered", "admitted", "rejected",
		"goodput", "deadlined", "failed", "p50", "p99")
	for _, row := range rows {
		for _, tn := range row.tenants {
			t.AddRow(row.mode.String(), tn.tenant,
				fmt.Sprintf("%d", tn.offered), fmt.Sprintf("%d", tn.admitted),
				fmt.Sprintf("%d", tn.rejected), fmt.Sprintf("%d", tn.goodput),
				fmt.Sprintf("%d", tn.deadlined), fmt.Sprintf("%d", tn.failed),
				metrics.Millis(tn.good.Percentile(0.5)), metrics.Millis(tn.good.P99()))
		}
	}
	return t
}

// checkTenancy is the zero-starvation gate: per mode, every well-behaved
// tenant must achieve at least tenancyTenantFrac of its weighted
// fair-share goodput (its full offered count — it asked for no more than
// its share), and the aggregate goodput must stay within tenancyAggTol of
// the single-tenant reference at the same offered rate (isolation must not
// cost throughput).
func checkTenancy(rows []tenancyRow) error {
	for _, row := range rows {
		for _, tn := range row.tenants {
			if tn.noisy {
				continue
			}
			if float64(tn.goodput) < tenancyTenantFrac*float64(tn.offered) {
				return fmt.Errorf("%s tenant %s starved: goodput %d of %d offered (gate: >= %.0f%%)",
					row.mode, tn.tenant, tn.goodput, tn.offered, tenancyTenantFrac*100)
			}
		}
		if row.refGoodput > 0 {
			diff := math.Abs(float64(row.aggGoodput) - float64(row.refGoodput))
			if diff > tenancyAggTol*float64(row.refGoodput) {
				return fmt.Errorf("%s aggregate goodput %d drifted beyond %.0f%% of single-tenant reference %d",
					row.mode, row.aggGoodput, tenancyAggTol*100, row.refGoodput)
			}
		}
	}
	return nil
}
