#!/usr/bin/env python3
"""Build and run kvbench, or compare two sets of its results.

Run one workload (from the repository root):

    python3 bench/kvbench/run.py --workload kv-a-1c --seed 1 --seconds 10 --trace 0

The first call configures and builds build-kvbench/ from source; later
calls only re-check the build. kvbench's own output goes to stderr; the
last line on stdout is one JSON object with the keys correct, attempted,
failed and metrics (the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer ones with --trace 1). The full result lands in
build-kvbench/results/, the traced run's spans next to it.

Compare two sets of untraced results:

    python3 bench/kvbench/run.py compare setA/*.json -- setB/*.json

prints one row per (workload, metric) with each side's median and
quartiles, reports "unresolved" where a side's own spread exceeds the
metric's bound, and exits 1 on a regression beyond the bound, a higher
failed fraction, or a workload whose run count differs between the
sides (a run that left no result). Results from different crypto tiers
or core counts are refused (exit 2).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build-kvbench"
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("kvbench: no library sources under", ROOT / "src")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "bench" / "kvbench"),
                      "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "kvbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("kvbench: build step failed:", " ".join(cmd))
            return False
    return True


def run(args):
    bench = load_benchmark()
    if not build():
        return 2
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    mode = "traced" if args.trace else "untraced"
    out = results / f"{args.workload}-seed{args.seed}-{mode}.json"
    if out.exists():
        out.unlink()
    cmd = [str(BUILD / "kvbench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--json={out}", f"--work-dir={BUILD / 'work'}"]
    if args.trace:
        cmd.append(f"--trace={results / f'{args.workload}-seed{args.seed}.trace.json'}")
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("kvbench: run timed out")
        return 1
    if not out.exists():
        log(f"kvbench: exited {rc} without a result")
        return 1
    with open(out) as f:
        result = json.load(f)

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"kvbench: result lacks metric {m['name']} [{m['unit']}]")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    line = {"correct": result["correct"] and rc == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(argv):
    if "--" not in argv:
        log("usage: run.py compare <setA/*.json> -- <setB/*.json>")
        return 2
    cut = argv.index("--")
    sides = []
    for paths in (argv[:cut], argv[cut + 1:]):
        side = []
        for p in paths:
            with open(p) as f:
                r = json.load(f)
            if not r.get("traced"):
                side.append(r)
        if not side:
            log("compare: a side has no untraced results")
            return 2
        sides.append(side)

    hosts = {(json.dumps(r["host"]["crypto"], sort_keys=True),
              r["host"]["nproc"]) for side in sides for r in side}
    if len(hosts) != 1:
        log("compare: refusing results from different crypto tiers or nproc:",
            sorted(hosts))
        return 2

    bench = load_benchmark()
    regressions = 0
    print(f"{'workload':<11} {'metric':<12} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8}  verdict")
    workloads = sorted({r["workload"] for side in sides for r in side})
    for w in workloads:
        runs = [[r for r in side if r["workload"] == w] for side in sides]
        if len(runs[0]) != len(runs[1]):
            # A run that crashed or timed out left no result behind.
            print(f"{w:<11} runs A={len(runs[0])} B={len(runs[1])}  "
                  "INCOMPLETE")
            regressions += 1
            continue
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = []
            for side in runs:
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in side])
                stats.append((med, q1, q3, (q3 - q1) / med if med else 0.0))
            (ma, *_, sa), (mb, *_, sb) = stats
            change = (mb - ma) / ma if ma else 0.0
            worse = change > bound if m["better"] == "lower" else -change > bound
            if sa > bound or sb > bound:
                verdict = "unresolved"
            elif worse:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            cells = [f"{med:.4g} [{q1:.4g}, {q3:.4g}]" for med, q1, q3, _ in stats]
            print(f"{w:<11} {name:<12} {cells[0]:>34} {cells[1]:>34} "
                  f"{change:>+8.2%}  {verdict}")
        frac = [statistics.mean(r["failed_frac"] for r in side) for side in runs]
        if frac[1] > frac[0]:
            print(f"{w:<11} failed_frac rose {frac[0]:.3g} -> {frac[1]:.3g}  REGRESSION")
            regressions += 1
    return 1 if regressions else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        return compare(sys.argv[2:])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
