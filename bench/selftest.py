#!/usr/bin/env python3
"""Self-test of the benchmark (about two minutes on 2 cores).

    python3 bench/selftest.py

Checks that
- BENCHMARK.json names only ``[A-Za-z0-9_.-]`` metrics, each once;
- a short untraced run of every workload is correct and emits every
  end-to-end metric, each non-zero;
- two short traced runs of every workload are correct, emit every per-layer
  metric, repeat every count exactly, keep the summed self times within the
  traced wall time, and read non-zero exactly on the layers ``EXERCISED``
  says the workload enters (the "should not move" cases of README.md);
- in a directory holding only BENCHMARK.json and bench/, run.py exits
  non-zero without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

from run import BENCH, DEFAULT_SEED, ROOT, TMP, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
COUNTS = re.compile(r".*\.calls|distribution\.points|measure\.digits_examined")

_FOURIER = {
    "fourier.mask_interval.calls",
    "fourier.mask_interval.self_s",
    "fourier.mu_hat_modulus.calls",
    "fourier.mu_hat_modulus.self_s",
    "fourier.levels_per_call",
}
_CONTEXT = {
    "numtheory.build_context.calls",
    "numtheory.build_context.self_s",
    "numtheory.round_threshold.self_s",
}
_ALWAYS = {"radix.base_at.calls", "cli.import_s", "cli.io_s", "proc.wall_s", "proc.cpu_s", "trace.wall_s"}
# per-layer metrics that read non-zero on each workload; every other one reads 0
EXERCISED = {
    "spectrum": _ALWAYS | _FOURIER | _CONTEXT | {"fourier.digit_decay_bound.self_s", "cli.fourier.wall_s"},
    "orbit": _ALWAYS
    | _FOURIER
    | _CONTEXT
    | {
        "delsum.del_partial.self_s",
        "delsum.block_trend.self_s",
        "delsum.unique_ratio",
        "radix.to_digits.calls",
        "radix.to_digits.self_s",
        "distribution.verify_partition.self_s",
        "distribution.classify_Bk.self_s",
        "distribution.points",
        "distribution.guard_use",
        "numtheory.order_by_crt.calls",
        "numtheory.order_by_crt.self_s",
        "cli.context.wall_s",
        "cli.del.wall_s",
        "cli.partition.wall_s",
    },
    "sample": _ALWAYS
    | {
        "measure.sample_point.calls",
        "measure.sample_point.self_s",
        "measure.normality_report.self_s",
        "measure.digits_examined",
        "measure.uniqueness_avoidance.calls",
        "measure.uniqueness_avoidance.self_s",
        "dimension.build_convolved.self_s",
        "dimension.ball_measure.calls",
        "dimension.ball_measure.self_s",
        "dimension.h_of_r.calls",
        "cli.normality.wall_s",
        "cli.uniqueness.wall_s",
        "cli.dimension.wall_s",
    },
}


def run(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(DEFAULT_SEED)]
    return subprocess.run(argv + ["--seconds", "1", "--trace", str(trace)], cwd=cwd, capture_output=True, text=True)


def result(workload: str, trace: int) -> dict:
    done = run(workload, trace)
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += [f"bad metric name {n!r}" for n in names if not NAME.fullmatch(n)]
    if len(set(names)) != len(names):
        problems.append("a metric name is used twice")
    if set(EXERCISED) != set(WORKLOADS) or set(WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        problems.append("workloads of BENCHMARK.json, run.py and selftest.py differ")
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems += [f"EXERCISED names unknown metric {n}" for s in EXERCISED.values() for n in s - per_layer]

    for w in WORKLOADS:
        plain = result(w, 0)
        if not plain["correct"] or plain["failed"]:
            problems.append(f"{w}: untraced run incorrect")
        for m in spec["end_to_end"]:
            if not plain["metrics"].get(m["name"], {}).get("value"):
                problems.append(f"{w}: end-to-end metric {m['name']} missing or 0")
        first, second = result(w, 1), result(w, 1)
        for r in (first, second):
            if not r["correct"] or r["failed"]:
                problems.append(f"{w}: traced run incorrect")
            missing = per_layer - set(r["metrics"])
            if missing:
                problems.append(f"{w}: per-layer metrics missing: {sorted(missing)}")
            values = {k: v["value"] for k, v in r["metrics"].items()}
            self_total = sum(v for k, v in values.items() if k.endswith(".self_s")) + values["cli.io_s"]
            if self_total > values["trace.wall_s"]:
                problems.append(f"{w}: summed self times {self_total} exceed traced wall {values['trace.wall_s']}")
            nonzero = {k for k, v in values.items() if v != 0 and k != "trace.overhead_s"}
            if nonzero != EXERCISED[w]:
                problems.append(
                    f"{w}: unexpected non-zero {sorted(nonzero - EXERCISED[w])}, "
                    f"unexpected zero {sorted(EXERCISED[w] - nonzero)}"
                )
        for name in sorted(per_layer):
            if COUNTS.fullmatch(name) and first["metrics"][name] != second["metrics"][name]:
                problems.append(f"{w}: count {name} differs between traced runs")
        print(f"{w}: checked", flush=True)

    bare = TMP / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run("orbit", 0, cwd=bare)
    shutil.rmtree(bare)
    try:
        TMP.rmdir()
    except OSError:  # a benchmark run is using it
        pass
    if done.returncode == 0 or done.stdout.strip():
        problems.append(f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
