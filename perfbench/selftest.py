#!/usr/bin/env python3
"""Self-test and second-seed check for the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py                  # smoke scale, about a minute after the build
    python3 perfbench/selftest.py --seeds 1 2      # full-scale traced runs on two seeds

The default mode runs every workload of BENCHMARK.json at smoke scale,
traced and untraced, and asserts that each run is correct, fails no
operation, and emits every declared metric, finite and with its declared
unit. It then runs every workload untraced against a deliberately wrong
reference and asserts that the failed operations are counted.

With `--seeds A B` it makes one full-scale traced run per workload and
seed, and asserts that each workload's dominant layer (the largest
per-layer `_ms` metric) is the same on both seeds, so no workload's
purpose rests on one seed. It prints the dominant layer per run.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

SPEC = json.loads(Path("BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace, *extra, seconds=1):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    assert proc.returncode == 0, f"{argv} exited with {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, section, what):
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    got = result["metrics"]
    assert set(got) == set(declared), f"{what}: metrics {sorted(set(got) ^ set(declared))} differ"
    for name, m in got.items():
        assert m["unit"] == declared[name], f"{what}: {name} has unit {m['unit']}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{what}: {name} = {m['value']}"


def smoke():
    for w in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{w} trace={trace}"
            r = run(w, 1, trace, "--scale", "smoke")
            assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, f"{what}: {r}"
            check_metrics(r, section, what)
            print(f"ok   {what}: {r['attempted']} ops, every metric present")
        r = run(w, 1, 0, "--scale", "smoke", "--wrong-reference")
        assert not r["correct"] and r["failed"] >= 1, f"{w}: a wrong reference passed: {r}"
        print(f"ok   {w} wrong reference: {r['failed']} of {r['attempted']} ops failed")


def dominant_layer(metrics, workload):
    """The largest per-layer time: the request kind's server.handle_ms on daemon-mix, an _ms layer elsewhere."""
    server = workload == "daemon-mix"
    times = {k: v["value"] for k, v in metrics.items()
             if k.startswith("server.handle_ms.") == server and k != "server.handle_ms.profiled"
             and (server or k.endswith("_ms"))}
    return max(times, key=times.get)


def second_seed(seeds):
    for w in WORKLOADS:
        found = []
        for seed in seeds:
            r = run(w, seed, 1, seconds=SPEC["run_seconds"])
            assert r["correct"] and r["failed"] == 0, f"{w} seed {seed}: {r}"
            layer = dominant_layer(r["metrics"], w)
            found.append(layer)
            print(f"{w} seed {seed}: dominant {layer} = {r['metrics'][layer]['value']:.1f} ms")
            print(json.dumps({k: v["value"] for k, v in r["metrics"].items()}))
        assert len(set(found)) == 1, f"{w}: the dominant layer depends on the seed: {found}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.seeds:
        second_seed(args.seeds)
    else:
        smoke()
    print("selftest passed")


if __name__ == "__main__":
    main()
