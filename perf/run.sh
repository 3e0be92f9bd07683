#!/usr/bin/env bash
# Run the benchmark's four workloads and merge the results.
#
#   perf/run.sh [--seed N] [--seconds S] [--trace]   one set -> perf/out/set.json
#                                                    (+ set_traced.json with --trace),
#                                                    one HISTORY.jsonl line per run
#   perf/run.sh --smoke                              ~1/10 of the work: schema and
#                                                    checks only, nothing recorded
#   perf/run.sh --compare A.json B.json              parent A vs change B against the
#                                                    bounds in BENCHMARK.json
#
# Each workload runs in its own process, so peak memory is per workload.
# Exits non-zero when a run fails its output checks or a comparison is
# beyond its bound.
set -euo pipefail

cd "$(dirname "$0")/.."
cargo_run=(cargo run --release --offline --quiet --manifest-path perf/Cargo.toml --)

if [[ "${1:-}" == "--compare" ]]; then
  [[ $# -eq 3 ]] || { echo "usage: perf/run.sh --compare A.json B.json" >&2; exit 2; }
  exec "${cargo_run[@]}" --compare "$2" "$3"
fi

pass=()
trace=0
smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed|--seconds) pass+=("$1" "$2"); shift 2 ;;
    --trace) trace=1; shift ;;
    --smoke) smoke=1; pass+=(--smoke --seconds 1); shift ;;
    *) echo "perf/run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

out=perf/out
workloads=(ask_cold serve_mixed dash_refresh shard_failover)
record=(--history perf/HISTORY.jsonl)
[[ $smoke -eq 1 ]] && record=()

# One set: every workload once, then {"<workload>": <record>, ...}.
run_set() { # <0|1 traced> <merged file>
  local suffix=""
  [[ $1 -eq 1 ]] && suffix="_traced"
  for w in "${workloads[@]}"; do
    "${cargo_run[@]}" --workload "$w" --trace "$1" --out "$out" \
      ${record[@]+"${record[@]}"} ${pass[@]+"${pass[@]}"} >/dev/null
  done
  {
    printf '{'
    local sep=""
    for w in "${workloads[@]}"; do
      printf '%s"%s":' "$sep" "$w"
      cat "$out/result_${w}${suffix}.json"
      sep=","
    done
    printf '}\n'
  } >"$2"
  echo "perf/run.sh: wrote $2" >&2
}

run_set 0 "$out/set.json"
if [[ $trace -eq 1 ]]; then
  run_set 1 "$out/set_traced.json"
fi
