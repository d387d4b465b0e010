#!/usr/bin/env python3
"""Repeat the benchmark over seeds and record medians and quartiles.

    python3 bench/record.py --label baseline

For each of ten seeds (DEFAULT_SEED, DEFAULT_SEED + 1, ...) it runs every workload
once with ``--trace 0``, then each workload once with ``--trace 1`` at the
default seed, and writes ``bench/BENCH_<label>.json``: per workload and
metric the values, their median, quartiles (``statistics.quantiles``,
n=4) and spread ((q3 - q1) / median), with the run count, ``nproc``, the
Python version and the git SHA. It prints each spread next to a third of the
metric's bound from BENCHMARK.json and exits 1 if any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import BENCH, DEFAULT_SEED, ROOT, WORKLOADS

RUNS = 10  # seeds per workload in one record


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "runs": len(values),
        "values": values,
    }


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = [DEFAULT_SEED + i for i in range(RUNS)]
    values: dict[str, dict[str, list[float]]] = {w: {} for w in WORKLOADS}
    incorrect = []
    for seed in seeds:
        for w in WORKLOADS:
            result = bench_once(w, seed, seconds, 0)
            if not result["correct"]:
                incorrect.append((w, seed))
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed={seed} " + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)

    record = {
        "label": args.label,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "seeds": seeds,
        "end_to_end": {w: {name: summary(v) for name, v in values[w].items()} for w in WORKLOADS},
        "per_layer": {},
    }
    for w in WORKLOADS:
        result = bench_once(w, DEFAULT_SEED, seconds, 1)
        if not result["correct"]:
            incorrect.append((w, DEFAULT_SEED))
        record["per_layer"][w] = {name: m["value"] for name, m in result["metrics"].items()}
    out = BENCH / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in WORKLOADS:
        for name, s in record["end_to_end"][w].items():
            flag = "ok" if s["spread"] < bounds[name] / 3 else "WIDE"
            print(f"{w:9s} {name:12s} median={s['median']:.4f} spread={s['spread']:.4f} "
                  f"bound/3={bounds[name] / 3:.4f} {flag}")
    print(f"wrote {out.relative_to(ROOT)}; incorrect runs: {incorrect or 'none'}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    raise SystemExit(main())
