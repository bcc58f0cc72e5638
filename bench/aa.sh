#!/usr/bin/env bash
# A/A: two interleaved sets of runs of one build, every run with another
# seed. For each workload and end-to-end metric the two set medians are
# compared against the bound BENCHMARK.json fixes; the instrument has to
# agree with itself before a later change can be judged by it.
#
#   bench/aa.sh [--runs N] [--seed S] [--out FILE]
#
# Prints the table, writes it as JSON (default bench/out/aa.json) and exits 1
# if any pair of medians differs by more than its bound. The committed copy
# of a passing run is bench/baseline/<fingerprint>.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml"

exec python3 - "$CARGO_TARGET_DIR/release/afd-ledger" "$root/BENCHMARK.json" "$here" "$@" <<'PY'
import json, os, platform, re, statistics, subprocess, sys

binary, spec_path, here, *args = sys.argv[1:]
runs, seed, out = 5, 1, os.path.join(here, "out", "aa.json")
while args:
    flag, value = args[0], (args[1:2] or [None])[0]
    if flag == "--runs" and value: runs = int(value)
    elif flag == "--seed" and value: seed = int(value)
    elif flag == "--out" and value: out = value
    else: sys.exit("usage: bench/aa.sh [--runs N] [--seed S] [--out FILE]")
    args = args[2:]
if runs < 5:
    sys.exit("an A/A needs at least 5 runs a set")

spec = json.load(open(spec_path))
seconds = spec["run_seconds"]
workloads = [w["name"] for w in spec["workloads"]]

def one(workload, seed):
    p = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"],
                       capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {k: v["value"] for k, v in result["metrics"].items()}

# Interleaved: A1 B1 A2 B2 … so both sets see the same stretch of host time.
sets = {"a": {w: [] for w in workloads}, "b": {w: [] for w in workloads}}
for i in range(runs):
    for w in workloads:
        sets["a"][w].append(one(w, seed + i))
        sets["b"][w].append(one(w, seed + runs + i))
        print(f"run {i + 1}/{runs} {w} {json.dumps([sets[s][w][-1] for s in 'ab'])}",
              file=sys.stderr, flush=True)

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

rows, agree = [], True
print(f"{'workload':14} {'metric':20} {'median A':>14} {'median B':>14} {'B vs A':>8} {'bound':>7} {'IQR A':>7} {'IQR B':>7}")
for w in workloads:
    for m in spec["end_to_end"]:
        a = [r[m["name"]] for r in sets["a"][w]]
        b = [r[m["name"]] for r in sets["b"][w]]
        ma, mb = statistics.median(a), statistics.median(b)
        diff = abs(mb - ma) / abs(ma)
        ok = diff <= m["bound"]
        agree &= ok
        row = {"workload": w, "metric": m["name"], "unit": m["unit"], "better": m["better"],
               "bound": m["bound"], "median_a": ma, "median_b": mb, "difference": diff,
               "spread_a": spread(a), "spread_b": spread(b), "agree": ok,
               "within_half_bound": diff <= m["bound"] / 2}
        rows.append(row)
        print(f"{w:14} {m['name']:20} {ma:14.4f} {mb:14.4f} {diff * 100:7.2f}% {m['bound'] * 100:6.1f}% "
              f"{row['spread_a'] * 100:6.2f}% {row['spread_b'] * 100:6.2f}%" + ("" if ok else "  DISAGREE"))

cpu = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name")), "unknown")
rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
fingerprint = {"nproc": os.cpu_count(), "cpu": cpu, "kernel": platform.release(), "rustc": rustc}
slug = re.sub(r"[^a-z0-9]+", "-", f"{os.cpu_count()}x-{cpu}-linux-{platform.release()}-{rustc.split()[1]}".lower()).strip("-")
os.makedirs(os.path.dirname(out), exist_ok=True)
with open(out, "w") as f:
    json.dump({"fingerprint": fingerprint, "fingerprint_slug": slug, "runs_per_set": runs,
               "run_seconds": seconds, "first_seed": seed, "agree": agree, "rows": rows}, f, indent=1)
    f.write("\n")
print(f"{'agree' if agree else 'DISAGREE'}: {out}   (baseline name: {slug}.json)", file=sys.stderr)
sys.exit(0 if agree else 1)
PY
