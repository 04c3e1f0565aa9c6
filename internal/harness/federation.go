package harness

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// This file drives the federation chaos scenario pair:
//
//   - rolling-kill: a federation of member engines over one worker fleet,
//     with every member killed and restarted in turn while an open-loop
//     client keeps submitting. Gates: every invocation completes, zero
//     lost, zero committed steps re-executed (DupDrops == 0 on every
//     member's journal) while replay actually skipped work
//     (ReplaySkips > 0), no invocation finished twice (DupDones == 0),
//     and no shard's failover dead time exceeded the detection + handoff
//     budget.
//   - stall: one member pauses lease renewals past the TTL while its
//     engine keeps running — the detector's false positive. A peer claims
//     the live member's shards and the stale owner's late work must be
//     fenced (FencedTotal > 0), again with every invocation completing
//     exactly once.

// Federation sizes; the open loop uses the fault scenarios' arrival
// spacing.
const (
	fedSize         = 3  // federation members
	fedInvocations  = 24 // total submissions
	fedShards       = 16 // ownership shards
	fedLeaseTTL     = time.Second
	fedRenewEvery   = 250 * time.Millisecond // lease renewal period
	fedCheckEvery   = 250 * time.Millisecond // detector sweep period
	fedHandoffDelay = 100 * time.Millisecond // claim -> replay grace
	fedKillStart    = 2 * time.Second        // first kill or stall instant
	fedKillEvery    = 4 * time.Second        // kill spacing
	fedDownFor      = 2 * time.Second        // restart delay per kill
	fedStallFor     = 3 * fedLeaseTTL        // stall scenario window
	// fedHandoffBudget is the detection + replay allowance the worst
	// failover dead time is gated against: one sweep period (plus its max
	// jitter) to detect the expiry, the handoff grace, and scheduling
	// slack.
	fedHandoffBudget = fedCheckEvery + fedCheckEvery/4 + fedHandoffDelay + 500*time.Millisecond
)

// Federation scenario names.
const (
	rollingKill = "rolling-kill"
	stall       = "stall"
)

// fedScenarios is the sweep order.
var fedScenarios = []string{rollingKill, stall}

// federationRow is one mode × scenario federated-chaos measurement.
type federationRow struct {
	mode     engine.Mode
	scenario string
	tally
	retried int // admissions that hit a handoff window and re-submitted
	fed     federation.Stats
	// handoffs counts HandoffEvents; maxHandoff is the worst failover dead
	// time (replay instant minus the victim's lease expiry) across them.
	handoffs   int
	maxHandoff time.Duration
	snapshot   *obs.Snapshot
}

func federationReport(int) (Report, error) {
	rows, err := sweep(fedScenarios, func(mode engine.Mode, scenario string) (federationRow, error) {
		return federationOne(mode, scenario, fedSize, 0)
	})
	if err != nil {
		return Report{}, err
	}
	rep := Report{Table: renderFederation(rows), Gate: checkFederation(rows)}
	for _, r := range rows {
		rep.addSnapshot(fmt.Sprintf("federation-%s-%s", r.mode, r.scenario), r.snapshot)
	}
	return rep, nil
}

func federationOne(mode engine.Mode, scenario string, members int, seed uint64) (federationRow, error) {
	tb := NewTestbed(ClusterSpec{FaaStore: true, Seed: seed})
	bus, log := recordedBus(tb)
	handoffs := 0
	var maxHandoff sim.Time
	bus.Subscribe(func(ev obs.Event) {
		if he, ok := ev.(obs.HandoffEvent); ok {
			handoffs++
			if d := he.At - he.Expired; d > maxHandoff {
				maxHandoff = d
			}
		}
	})

	deps, err := tb.DeployReplicas(workloads.ByName(scenarioBench), members, func(i int) engine.Options {
		return recoveryOptions(mode, journal.New(tb.Env, journal.Config{}))
	})
	if err != nil {
		return federationRow{}, fmt.Errorf("harness: federated deploy %s/%s: %w", scenarioBench, mode, err)
	}
	fedMembers := make([]federation.Member, len(deps))
	for i, d := range deps {
		fedMembers[i] = federation.Member{
			ID:      fmt.Sprintf("e%d", i),
			Engine:  d.Engine,
			Journal: d.Engine.Journal(),
		}
	}
	fed, err := federation.New(tb.Env, federation.Config{
		Shards:       fedShards,
		LeaseTTL:     fedLeaseTTL,
		RenewEvery:   fedRenewEvery,
		CheckEvery:   fedCheckEvery,
		HandoffDelay: fedHandoffDelay,
		Seed:         seed + 1, // 0 would fall back to the default seed
	}, bus, fedMembers...)
	if err != nil {
		return federationRow{}, err
	}

	inj := faults.NewInjector(tb.Env, tb.Runtime.Nodes, tb.Fabric, tb.Runtime.Store, bus)
	inj.AttachFederation(fed)
	var sched faults.Schedule
	switch scenario {
	case rollingKill:
		sched = faults.RollingEngineKills(fed.MemberIDs(), fedKillStart, fedKillEvery, fedDownFor)
	case stall:
		sched = faults.Schedule{{
			Kind: faults.EngineStall, Engine: fed.MemberIDs()[0],
			At: fedKillStart, Duration: fedStallFor,
		}}
	default:
		return federationRow{}, fmt.Errorf("harness: unknown federation scenario %q", scenario)
	}
	if err := inj.Install(sched); err != nil {
		return federationRow{}, err
	}

	t := tally{invocations: fedInvocations}
	retried := 0
	var submit func()
	submit = func() {
		_, err := fed.Invoke(engine.InvokeOptions{}, t.done)
		if he, ok := err.(*federation.HandoffError); ok {
			// The shard is mid-handoff: honor the Retry-After, exactly
			// as a client behind the gateway's 503 would.
			retried++
			tb.Env.Schedule(he.RetryAfter, submit)
		}
	}
	stagger(tb.Env, 0, faultInterval, fedInvocations, submit)
	// The lease/detector timers tick forever; run to a horizon that covers
	// every fault window plus recovery, stop the control plane, and drain.
	horizon := fedKillStart + time.Duration(members)*fedKillEvery +
		fedInvocations*faultInterval + 2*time.Minute
	tb.Env.RunUntil(sim.Time(horizon))
	fed.Stop()
	tb.Env.Run()

	return federationRow{
		mode:       mode,
		scenario:   scenario,
		tally:      t,
		retried:    retried,
		fed:        fed.Stats(),
		handoffs:   handoffs,
		maxHandoff: maxHandoff.Duration(),
		snapshot: obs.BuildSnapshot(log, map[string]string{
			"scenario": "federation-" + scenario,
			"bench":    scenarioBench,
			"mode":     mode.String(),
		}),
	}, nil
}

// checkFederation enforces the federated-chaos gates:
//
//	every row    — zero lost invocations, zero double-finishes
//	               (DupDones == 0), and zero committed steps re-executed
//	               on any member (DupDrops == 0);
//	rolling-kill — every member failed over at least once (claims and
//	               adoptions happened), replay skipped committed work, and
//	               the worst failover dead time stayed within the
//	               detection + handoff budget;
//	stall        — the false positive triggered a claim and the stale
//	               owner's late work was fenced at some layer.
func checkFederation(rows []federationRow) error {
	for _, r := range rows {
		where := fmt.Sprintf("federation %s/%s", r.mode, r.scenario)
		if r.lost() > 0 {
			return fmt.Errorf("%s: lost %d of %d invocations", where, r.lost(), r.invocations)
		}
		if r.fed.DupDones != 0 {
			return fmt.Errorf("%s: %d invocations finished twice", where, r.fed.DupDones)
		}
		for _, m := range r.fed.Members {
			if m.DupDrops != 0 {
				return fmt.Errorf("%s: member %s re-executed %d committed steps", where, m.ID, m.DupDrops)
			}
		}
		switch r.scenario {
		case rollingKill:
			if r.fed.Claims == 0 || r.fed.Adoptions == 0 {
				return fmt.Errorf("%s: no failover happened (claims=%d adoptions=%d)",
					where, r.fed.Claims, r.fed.Adoptions)
			}
			var skips int64
			for _, m := range r.fed.Members {
				skips += m.ReplaySkips
			}
			if skips == 0 {
				return fmt.Errorf("%s: handoff replay skipped no committed steps", where)
			}
			if r.handoffs == 0 {
				return fmt.Errorf("%s: no HandoffEvents recorded", where)
			}
			if r.maxHandoff > fedHandoffBudget {
				return fmt.Errorf("%s: worst failover dead time %v exceeds budget %v",
					where, r.maxHandoff, fedHandoffBudget)
			}
		case stall:
			if r.fed.Claims == 0 {
				return fmt.Errorf("%s: the false positive never triggered a claim", where)
			}
			if r.fed.FencedTotal == 0 {
				return fmt.Errorf("%s: stale owner's late work was never fenced", where)
			}
		}
	}
	return nil
}

func renderFederation(rows []federationRow) *metrics.Table {
	t := metrics.NewTable("mode", "scenario", "done", "lost", "failed", "retried",
		"claims", "adopted", "fenced", "dup-dones", "handoff-max", "mean", "p99")
	for _, r := range rows {
		t.AddRow(r.mode.String(), r.scenario,
			fmt.Sprintf("%d/%d", r.completed, r.invocations),
			fmt.Sprintf("%d", r.lost()), fmt.Sprintf("%d", r.failed),
			fmt.Sprintf("%d", r.retried),
			fmt.Sprintf("%d", r.fed.Claims),
			fmt.Sprintf("%d", r.fed.Adoptions),
			fmt.Sprintf("%d", r.fed.FencedTotal),
			fmt.Sprintf("%d", r.fed.DupDones),
			metrics.Millis(r.maxHandoff),
			metrics.Millis(r.rec.Mean()), metrics.Millis(r.rec.P99()))
	}
	return t
}
