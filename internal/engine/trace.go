package engine

import (
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/sim"
)

// span publishes one executor phase — acquire (container wait + cold
// start), fetch (input download), exec (compute), store (output upload) —
// to the observability bus, when one is attached.
func (d *Deployment) span(inv *invocation, id dag.NodeID, replica int, phase string, start sim.Time) {
	if !d.obs.Active() {
		return
	}
	d.obs.Publish(obs.PhaseEvent{
		Workflow: d.bench.Name,
		Inv:      inv.id,
		Node:     int(id),
		Name:     d.g.Node(id).Name,
		Replica:  replica,
		Comp:     phaseComp(phase),
		Worker:   inv.place[id],
		Start:    start,
		End:      d.rt.Env.Now(),
	})
}
