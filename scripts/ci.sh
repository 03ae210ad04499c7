#!/usr/bin/env bash
# Offline CI gate: formatting, lints, tier-1 build + tests, and an engine
# benchmark smoke run. Everything here must pass with no network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --release -- -D warnings

echo "==> tier-1 build"
cargo build --release

echo "==> tier-1 tests"
cargo test -q --release

echo "==> workspace tests"
cargo test -q --release --workspace

echo "==> engine benchmark (smoke)"
cargo run --release -p gaat-bench --bin engine_speed -- --smoke --out /tmp/BENCH_engine_smoke.json
echo "smoke benchmark OK"

echo "==> topology benchmark (smoke)"
# Runs the tiny congestion ablation and writes BENCH_net JSON; exits 1 if
# the FatTree single-flow sanity pin diverges >1% from Flat.
cargo run --release -p gaat-bench --bin net_speed -- --smoke --out /tmp/BENCH_net_smoke.json
# Belt and braces on top of the binary's own exit code: the recorded
# JSON must actually say the FatTree-vs-Flat sanity pin passed.
grep -q '"pass": true' /tmp/BENCH_net_smoke.json \
  || { echo "sanity_pin failed in BENCH_net_smoke.json" >&2; exit 1; }
echo "topo smoke OK"

echo "==> collectives benchmark (smoke)"
# Ring/tree allreduce and MoE alltoall sweeps; exits 1 if any collective
# diverges from its scalar reference or the training step fails to
# overlap. Merges into the same JSON net_speed wrote above.
cargo run --release -p gaat-bench --bin coll_speed -- --smoke --out /tmp/BENCH_net_smoke.json
grep -q '"sanity_pin": {"ring_allreduce": true, "tree_allreduce": true, "moe": true, "pass": true}' /tmp/BENCH_net_smoke.json \
  || { echo "coll_speed sanity pin failed in BENCH_net_smoke.json" >&2; exit 1; }
echo "coll smoke OK"

echo "==> adaptive load balancer benchmark (smoke)"
# Closed-loop LB against a degraded link plus a 4x GPU straggler: the
# adaptive policy must claw back >= 20% of the static-vs-fault-free
# makespan gap, replay bit-identically from the same seed, keep the
# Jacobi solution checksum equal across all cells, and fingerprint
# identically at sweep pool workers 1/2/4. Virtual-time pins — never
# excused by throttling.
cargo run --release -p gaat-bench --bin lb_speed -- --smoke --out /tmp/BENCH_lb_smoke.json
grep -Eq '"sanity_pin": \{"recovery": [0-9.]+, "min_recovery": 0.2, "replay_identical": true, "solutions_identical": true, "workers_match": true, "pass": true\}' /tmp/BENCH_lb_smoke.json \
  || { echo "lb_speed sanity pin failed in BENCH_lb_smoke.json" >&2; exit 1; }
echo "lb smoke OK"

echo "==> load-balancer replay pin (full size)"
# LB plans apply through the runtime's checkpoint rollback path. At full
# size every cell must reproduce the committed BENCH_net.json lb_speed
# block exactly: virtual-time makespan, entries and LB counters.
cargo run --release -p gaat-bench --bin lb_speed -- --out /tmp/BENCH_lb_full.json
python3 - /tmp/BENCH_lb_full.json BENCH_net.json <<'PY'
import json, sys
keys = ("total_ns", "entries", "lb_rounds", "lb_applied", "migrations")
def cells(path):
    with open(path) as f:
        block = json.load(f)["lb_speed"]
    return {c["name"]: [c[k] for k in keys] for c in block["cells"]}
got, want = cells(sys.argv[1]), cells(sys.argv[2])
if got != want:
    sys.exit(f"lb_speed cells {got} differ from BENCH_net.json {want}")
PY
echo "lb replay OK"

echo "==> sweep-engine benchmark (smoke)"
# Batched scenario-sweep engine: fingerprints at workers 1/2/4 must
# match each other and standalone runs, and world reuse must cut mean
# per-scenario setup overhead (flagged instead of failed only when the
# ThrottleGuard suspects host thermal throttling).
cargo run --release -p gaat-bench --bin sweep_speed -- --smoke --out /tmp/BENCH_sweep_smoke.json
grep -Eq '"sanity_pin": \{"scenarios": [0-9]+, "workers_match": true, "standalone_match": true, "pass": true\}' /tmp/BENCH_sweep_smoke.json \
  || { echo "sweep_speed sanity pin failed in BENCH_sweep_smoke.json" >&2; exit 1; }
# The prefix-fork cell's correctness pin: a fork-enabled sweep of the
# fault-shaped grid must fingerprint identically to the unforked sweep
# (the fork speedup half is throttle-flagged inside the binary, but
# fingerprint equality is never excused).
grep -q '"fingerprints_match": true' /tmp/BENCH_sweep_smoke.json \
  || { echo "sweep_speed fork fingerprint pin failed in BENCH_sweep_smoke.json" >&2; exit 1; }
echo "sweep smoke OK"

echo "==> fault-injection smoke"
# Deterministic replay diff (same fault seed twice -> identical
# fingerprints) + Jacobi3D bit-identical to the reference under 1%
# message drop with the reliable transport on. Offline, sub-second.
cargo run --release -p gaat-bench --bin fault_smoke
echo "fault smoke OK"

echo "==> perfbench self-test (smoke)"
# perfbench is a package of its own outside the workspace, built against
# the public gaat_sweep / charm / sweep3d / dptrain API; this builds it
# and runs every BENCHMARK.json workload at smoke size, checking the
# result contract and the per-layer counters.
python3 perfbench/selftest.py
echo "perfbench self-test OK"

echo "==> perfbench simulated-time pin (smoke)"
# Simulated time is the model's output, so a change that only touches
# how the apps or the runtime are written must not move it. Each
# Jacobi3D workload, at smoke size and seed 3, must be correct, fail no
# operation and reproduce its recorded sim_us_per_iter exactly.
python3 - <<'PY'
import json, subprocess, sys
want = {"strong_charmd_512": 490.173, "weak_fattree_charmh_64": 19309.35}
for name, us in want.items():
    out = subprocess.run(
        ["cargo", "run", "--quiet", "--release", "--offline", "--manifest-path",
         "perfbench/Cargo.toml", "--", "--workload", name, "--seed", "3",
         "--seconds", "0.1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, check=True)
    r = json.loads(out.stdout.strip().splitlines()[-1])
    got = r["metrics"]["sim_us_per_iter"]["value"]
    if not (r["correct"] and r["failed"] == 0 and got == us):
        sys.exit(f"{name}: correct {r['correct']}, failed {r['failed']}, "
                 f"sim_us_per_iter {got} (want {us})")
PY
echo "sim-time pin OK"

echo "CI green"
