#!/usr/bin/env bash
# Runs every reproduction experiment (E1-E12) in sequence and saves the
# output under results/. See EXPERIMENTS.md for the experiment index.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
cargo build -p afd-bench --release
for exp in e1_decoupling e2_properties e3_transform_ab e4_transform_ba \
           e5_threshold_qos e6_hysteresis_qos e7_tradeoff e8_kappa_loss \
           e9_adversary e10_bot e11_partial_synchrony e12_omega; do
    echo "=== $exp ==="
    ./target/release/"$exp" | tee "results/$exp.txt"
    echo
done
echo "All experiments complete; outputs in results/."
