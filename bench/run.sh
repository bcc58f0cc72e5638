#!/usr/bin/env bash
# The ledger in one command: builds the benchmark (release, offline) into the
# repository's shared target/, runs the four workloads each in its own
# process — untraced for the end-to-end metrics, then traced for the
# per-layer ones — prints every metric with its unit and sample count, and
# writes bench/out/ledger.json stamped with the host it was taken on.
#
#   bench/run.sh [--seed N]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
seed=1
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
        *) echo "usage: bench/run.sh [--seed N]" >&2; exit 2 ;;
    esac
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/afd-ledger"

spec="$root/BENCHMARK.json"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$spec")"
# engine_chan is in the ledger but not in BENCHMARK.json (see README.md).
workloads="udp_hot udp_wide engine_chan churn_restore"

esc() { printf '%s' "$1" | sed 's/[\\"]/\\&/g'; }
cpu="$(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo | head -n 1)"
fingerprint="{\"nproc\": $(nproc), \"cpu\": \"$(esc "$cpu")\", \"kernel\": \"$(esc "$(uname -r)")\", \"rustc\": \"$(esc "$(rustc --version)")\"}"

# Runs one process; prints its `workload/metric value unit (n=…)` lines and
# leaves its last line, the JSON result, in $result.
run_one() {
    local out
    out="$("$bin" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2")"
    printf '%s\n' "$out" | sed '$d'
    result="$(printf '%s\n' "$out" | tail -n 1)"
}

body=""
for w in $workloads; do
    run_one "$w" 0
    e2e="$result"
    run_one "$w" 1
    body="$body${body:+,}
  \"$w\": {\"end_to_end\": $e2e,
   \"per_layer\": $result}"
done

mkdir -p "$here/out"
ledger="$here/out/ledger.json"
printf '{"fingerprint": %s,\n "seed": %s, "run_seconds": %s,\n "workloads": {%s\n }}\n' \
    "$fingerprint" "$seed" "$seconds" "$body" > "$ledger"
echo "ledger: $ledger"
