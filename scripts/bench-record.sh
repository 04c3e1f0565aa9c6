#!/usr/bin/env bash
# Records one point of the BENCH trajectory. Runs the repository benchmark
# (perfbench, declared by BENCHMARK.json) untraced on each of its three
# workloads at seed 1 for 30 s, and writes each run's digest line and final
# JSON result line to BENCH_<SEQ>.json at the repository root. Run from the
# root:
#
#   bash scripts/bench-record.sh 2
#
# A failed correctness check in any run fails the script and writes
# nothing.
set -euo pipefail

seq=${1:?usage: bash scripts/bench-record.sh SEQ}
out="BENCH_${seq}.json"
tmp="BENCH_${seq}.tmp.json"
workloads=(genome-closed hyperflow-mix-open gateway-mixed)

{
	echo "["
	for i in "${!workloads[@]}"; do
		w=${workloads[$i]}
		run=$(bash perfbench/run.sh --workload "$w" --seed 1 --seconds 30 --trace 0)
		digest=$(grep '^digest ' <<<"$run")
		result=$(tail -n 1 <<<"$run")
		sep=","
		if ((i == ${#workloads[@]} - 1)); then
			sep=""
		fi
		printf ' {"workload": "%s", "seed": 1, "seconds": 30, "digest": "%s", "result": %s}%s\n' \
			"$w" "$digest" "$result" "$sep"
	done
	echo "]"
} >"$tmp"
mv "$tmp" "$out"
echo "wrote $out"
