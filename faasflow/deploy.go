package faasflow

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/federation"
	"repro/internal/journal"
)

// This file is the one deploy entry point. A deployment is Algorithm 1
// grouping plus a scheduling pattern; every other feature — recovery,
// durability, the data-plane fast path, federation — is an option on it,
// and any combination of options is valid.

// DeployOption adds one feature to a deployment; pass any combination to
// Cluster.Deploy.
type DeployOption func(*deployConfig)

type deployConfig struct {
	recovery   *Recovery
	durability *Durability
	fastPath   FastPath
	federation *FederationOptions
}

// WithRecovery enables the fault-recovery layer: tasks time out and
// re-issue, and tasks stranded on dead nodes are re-placed onto surviving
// workers (MasterSP re-issues from the master; WorkerSP re-issues from the
// task's predecessor worker). Zero fields take the defaults on Recovery.
func WithRecovery(r Recovery) DeployOption {
	return func(c *deployConfig) { c.recovery = &r }
}

// WithDurability enables durable execution: every completed step commits a
// journal record before its successors observe it, an engine crash (an
// injected EngineDown fault) recovers by replaying the journal and
// re-dispatching only the uncommitted cut, and — when ReplicationFactor >
// 1 — FaaStore outputs survive node deaths on replica shards. Durability
// implies recovery (with Recovery's defaults unless WithRecovery is given).
func WithDurability(d Durability) DeployOption {
	return func(c *deployConfig) { c.durability = &d }
}

// WithFastPath enables the data-plane fast path. The zero FastPath is the
// same as leaving the option out. Direct passing is skipped while the
// store replicates (durability requires the replicated store hop); memo
// hits still commit journal records so crash replay skips them.
func WithFastPath(fp FastPath) DeployOption {
	return func(c *deployConfig) { c.fastPath = fp }
}

// WithFederation deploys the workflow behind a sharded engine federation:
// Members durable engines share ownership of the invocation space, and a
// member crash (KillFederationMember, or an injected EngineKill fault)
// triggers lease expiry, an epoch-fenced shard claim by a survivor, and a
// journal handoff that resumes the dead member's invocations by replay.
// Federation implies durability; every member gets its own journal built
// from the deployment's Durability, and handoff replays read the union
// view across members. The same seed reproduces the same claim winners,
// fences, and replays.
func WithFederation(f FederationOptions) DeployOption {
	return func(c *deployConfig) { c.federation = &f }
}

// engine maps the public pattern onto the engine's.
func (m Mode) engine() engine.Mode {
	if m == MasterSP {
		return engine.ModeMasterSP
	}
	return engine.ModeWorkerSP
}

func orDefault(d, def time.Duration) time.Duration {
	if d == 0 {
		return def
	}
	return d
}

// Deploy schedules the workflow onto the cluster (Algorithm 1 grouping
// with FaaStore quota reclamation) and prepares it for invocation under
// the chosen pattern, with the features opts add.
func (c *Cluster) Deploy(wf *Workflow, mode Mode, opts ...DeployOption) (*App, error) {
	var cfg deployConfig
	for _, o := range opts {
		o(&cfg)
	}
	members := 1
	if fo := cfg.federation; fo != nil {
		members = fo.Members
		if members == 0 {
			members = 3
		}
		if members < 0 {
			return nil, fmt.Errorf("faasflow: federation needs members > 0, got %d", members)
		}
		if cfg.durability == nil {
			cfg.durability = &Durability{}
		}
	}
	if cfg.durability != nil && cfg.recovery == nil {
		cfg.recovery = &Recovery{}
	}

	base := engine.Options{Mode: mode.engine(), Data: engine.DataStore, FastPath: cfg.fastPath}
	if r := cfg.recovery; r != nil {
		base.TaskTimeout = orDefault(r.TaskTimeout, 30*time.Second)
		base.BackoffBase = orDefault(r.BackoffBase, 200*time.Millisecond)
		base.BackoffMax = orDefault(r.BackoffMax, 5*time.Second)
		base.MaxReissues = r.MaxReissues
	}
	dur := cfg.durability
	if dur != nil && dur.ReplicationFactor > 1 {
		c.tb.Runtime.Store.SetReplication(dur.ReplicationFactor, dur.RepairInterval)
		nodes := c.tb.Runtime.Nodes
		c.tb.Runtime.Store.SetAlive(func(n string) bool {
			node := nodes[n]
			return node == nil || !node.Failed()
		})
	}

	// Every member engine of a federation is a full control-plane replica
	// over the same placement; a plain deployment is a federation of one
	// without the router.
	var first engine.Options
	deps, err := c.tb.DeployReplicas(wf.bench, members, func(i int) engine.Options {
		o := base
		if dur != nil {
			o.Journal = journal.New(c.tb.Env, journal.Config{SyncLatency: dur.SyncLatency, BatchWindow: dur.BatchWindow})
		}
		if i == 0 {
			first = o
		}
		return o
	})
	if err != nil {
		return nil, err
	}
	app := &App{cluster: c, dep: deps[0], opts: first}
	fo := cfg.federation
	if fo == nil {
		return app, nil
	}
	fedMembers := make([]federation.Member, len(deps))
	for i, d := range deps {
		fedMembers[i] = federation.Member{
			ID:      fmt.Sprintf("engine-%d", i),
			Engine:  d.Engine,
			Journal: d.Engine.Journal(),
		}
	}
	seed := fo.Seed
	if seed == 0 {
		seed = c.tb.Spec.Seed + 1
	}
	app.fed, err = federation.New(c.tb.Env, federation.Config{
		Shards:       fo.Shards,
		LeaseTTL:     fo.LeaseTTL,
		RenewEvery:   fo.RenewEvery,
		CheckEvery:   fo.CheckEvery,
		HandoffDelay: fo.HandoffDelay,
		Seed:         seed,
	}, c.tb.Bus(), fedMembers...)
	if err != nil {
		return nil, err
	}
	return app, nil
}
