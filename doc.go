// Package repro is the root of the FaaSFlow reproduction (ASPLOS 2022).
//
// The public API lives in repro/faasflow; the substrates (simulation
// kernel, network fabric, cluster/container model, storage, scheduler,
// engines, workloads, experiment harness) live under repro/internal.
// Every paper table and figure is an entry of the harness's scenario
// registry; regenerate them with:
//
//	go run ./cmd/faasflow-experiments -run all
package repro
