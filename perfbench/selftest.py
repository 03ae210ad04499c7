#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

Runs every workload of BENCHMARK.json at smoke size, traced and
untraced, and checks that the result line has exactly the contract's
keys, that it is correct, that every metric BENCHMARK.json names is
printed with its unit, and that the layer predictions hold as counts.

    python3 perfbench/selftest.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(command, workload, trace):
    args = command + ["--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--smoke"]
    out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr[-4000:]}")
    lines = out.stdout.strip().splitlines()
    header = json.loads(lines[0])
    result = json.loads(lines[-1])
    return header, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    command = bench["command"]
    specs = {0: bench["end_to_end"], 1: bench["per_layer"]}
    failures = []

    def expect(cond, msg):
        if not cond:
            failures.append(msg)

    layers = {}
    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            header, result = run(command, name, trace)
            where = f"{name} trace={trace}"
            expect(header["seed"] == 3 and header["workload"] == name, f"{where}: header {header}")
            for key in ("nproc", "cpu", "commit", "rustc", "size"):
                expect(key in header["host"], f"{where}: host block lacks {key}")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: result keys {sorted(result)}")
            expect(result["correct"] is True, f"{where}: not correct")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{where}: attempted {result['attempted']} failed {result['failed']}")
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in specs[trace]}
            expect(set(metrics) == set(want),
                   f"{where}: missing {sorted(set(want) - set(metrics))}, "
                   f"extra {sorted(set(metrics) - set(want))}")
            for m, unit in want.items():
                got = metrics.get(m, {})
                expect(got.get("unit") == unit, f"{where}: {m} unit {got.get('unit')} != {unit}")
                v = got.get("value")
                expect(isinstance(v, (int, float)) and math.isfinite(v), f"{where}: {m} = {v}")
                if trace == 0:
                    expect(v is not None and v > 0, f"{where}: end-to-end {m} = {v}")
            if trace == 1:
                layers[name] = {m: v["value"] for m, v in metrics.items()}
                spans = os.path.join(HERE, "out", f"spans-{name}-seed3.json")
                expect(os.path.exists(spans), f"{where}: no span file {spans}")
            print(f"ok  {where}: {len(metrics)} metrics", flush=True)

    strong, weak, sweep = (layers["strong_charmd_512"], layers["weak_fattree_charmh_64"],
                           layers["sweep_faults"])
    for w, v in layers.items():
        topo = [m for m in v if m.startswith("topo.") and v[m] != 0]
        sweep_m = [m for m in v if m.startswith("sweep.") and v[m] != 0]
        if w == "weak_fattree_charmh_64":
            expect(v["topo.recomputes"] > 0, f"{w}: topo.recomputes is 0")
        else:
            expect(not topo, f"{w}: topo nonzero: {topo}")
        if w == "sweep_faults":
            expect(v["sweep.scenarios"] > 0 and v["ucx.retransmits"] > 0,
                   f"{w}: no scenarios or retransmits")
        else:
            expect(not sweep_m and v["ucx.retransmits"] == 0,
                   f"{w}: sweep {sweep_m} or retransmits {v['ucx.retransmits']}")
    expect(strong["ucx.gpudirect"] > 0, "strong_charmd_512: ucx.gpudirect is 0")
    expect(weak["ucx.gpudirect"] == 0, "weak_fattree_charmh_64: ucx.gpudirect > 0")
    expect(weak["gpu.memcpys"] > 0 and weak["ucx.active_messages"] > 0,
           "weak_fattree_charmh_64: no staging copies or active messages")
    expect(sweep["jacobi3d.checksum_mismatches"] == 0, "sweep_faults: checksum mismatches")

    for f in failures:
        print("FAIL", f)
    if failures:
        sys.exit(1)
    print("selftest passed")


if __name__ == "__main__":
    main()
