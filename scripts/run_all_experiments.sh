#!/usr/bin/env bash
# Runs every reproduction experiment (E1-E12) in sequence and saves the
# output under results/. See EXPERIMENTS.md for the experiment index.
# Each experiment's wall time, and the total, go to stderr, so results/
# holds only what the binaries print.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
cargo build -p afd-bench --release
# Microseconds since the epoch.
micros() { echo "${EPOCHREALTIME/./}"; }
total=0
for exp in e1_decoupling e2_properties e3_transform_ab e4_transform_ba \
           e5_threshold_qos e6_hysteresis_qos e7_tradeoff e8_kappa_loss \
           e9_adversary e10_bot e11_partial_synchrony e12_omega; do
    echo "=== $exp ==="
    start=$(micros)
    ./target/release/"$exp" | tee "results/$exp.txt"
    took=$(( $(micros) - start ))
    total=$(( total + took ))
    echo
    echo "$exp: $(( took / 1000 )) ms" >&2
done
echo "E1-E12: $(( total / 1000 )) ms" >&2
echo "All experiments complete; outputs in results/."
