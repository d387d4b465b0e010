#!/usr/bin/env python3
"""Fresh-process benchmark of the moranlab CLI.

    python3 bench/run.py --workload {spectrum,orbit,sample} --seed N \\
        --seconds S --trace {0,1}

Each operation is one ``python -m moranlab <command> --config <config>
--seed N --out <fresh dir>`` child process, so every invocation pays for its
own interpreter start, import and cold caches, as a user of the CLI does.
The loop is closed with one client: one child at a time. A pass runs a
workload's invocations in order; passes repeat until S seconds are used.

--trace 0 reports the end-to-end metrics: ``wall_s`` (median pass wall
time), ``setup_s`` (median of fresh ``schedule`` invocations on the
workload's first config, at least SETUPS_PER_PASS per untraced pass, run
after its invocations and kept out of the pass's time) and ``peak_rss_mb``
(median over passes of the largest child RSS). Both times are calibrated:
each invocation's wall time is scaled to the reference machine's speed by a
fixed pure-Python task timed just before and after it (README.md,
"Calibration"). --trace 1 spends half the time on untraced passes and half
on passes launched through ``tracer.py``; its result holds the per-layer
metrics, and it prints the end-to-end ones too. Metric names and units
come from BENCHMARK.json.

Every invocation must exit 0 and its artifacts must pass ``checks.validate``
and hash to the same digests on every pass; with the default seed they must
also match ``digests.json``, recorded at the commit the baseline was taken.
The last line of stdout is the JSON result; the lines before it print each
metric with its unit and sample count, the error rate and every digest.
``--update-digests`` runs one pass at the default seed and rewrites the
workload's entry in ``digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = BENCH / "configs"
DIGESTS = BENCH / "digests.json"
TMP = ROOT / ".bench_tmp"

DEFAULT_SEED = 1
TIMEOUT_S = 120
CAL_REPS = 9  # calibration units measured between two invocations
SETUPS_PER_PASS = 4  # at least this many set-up samples per untraced pass
CAL_REF_S = 0.009  # median calibration unit on the reference machine (2-core x86-64 VM)

# workload -> (command, config) invocations of one pass, in order
WORKLOADS = {
    # fourier on random frequencies with a 2-thread pool: level masks and the
    # transform do nearly all the work; the only workload on the pool path
    "spectrum": [
        ("fourier", "spectrum_shallow"),  # 2000 xi <= N_3, depth-28 schedule
        ("fourier", "spectrum_deep"),  # 1000 fixed xi up to 1e80, depth-105 schedule
    ],
    # the h(b^n - b^m) pipeline: orders, digit enumeration, DEL series
    "orbit": [
        ("context", "orbit_context"),  # 12 (b, h) contexts: orders by CRT
        ("partition", "orbit_partition_b2"),  # 111,540 points enumerated
        ("partition", "orbit_partition_b3h2"),  # 55,770 points, other (b, h, ell)
        ("del", "orbit_del"),  # N_max = 64: memoised structured frequencies
        ("del", "orbit_del_blocks"),  # block report r = 1..2 on a 20-prime schedule
    ],
    # exact big-int sampling, digit statistics and ball counts; no fourier,
    # distribution or to_digits
    "sample": [
        ("normality", "sample_normality"),  # 8 samples of depth 1035, bases 2/3/10
        ("uniqueness", "sample_uniqueness_plain"),  # 200 plain samples
        ("uniqueness", "sample_uniqueness_dim_one"),  # 50 convolved samples
        ("dimension", "sample_dimension_dim_one"),  # ball counts, dim-one variant
        ("dimension", "sample_dimension_gauge"),  # ball counts, r (log 1/r) gauge
    ],
}


@dataclass
class Call:
    """One finished child process."""

    wall: float
    rss_mb: float
    cpu_s: float
    calibrated: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)


@dataclass
class Pass:
    wall: float = 0.0
    calibrated: float = 0.0
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    layers: dict[str, float] = field(default_factory=lambda: defaultdict(float))


def calibration_unit() -> float:
    """Wall time of a fixed pure-Python task mixing the arithmetic moranlab
    spends its time on: big-int modular powers and Fraction sums."""
    t0 = time.perf_counter()
    acc = 0
    frac = Fraction(0)
    for i in range(1, 3000):
        acc += pow(7, i, 10**40 + 7) * (i % 13)
        if i % 10 == 0:
            frac += Fraction(i, i + 3)
    return time.perf_counter() - t0


def calibrate(threads: int) -> float:
    """Median calibration unit per thread, with ``threads`` units run at
    once in this process. A workload whose children run a thread pool is
    calibrated on as many threads, so the units contend for the GIL and
    both cores as its children do."""
    if threads == 1:
        return statistics.median(calibration_unit() for _ in range(CAL_REPS))
    groups = []
    for _ in range(-(-CAL_REPS // threads)):
        pool = [threading.Thread(target=calibration_unit) for _ in range(threads)]
        t0 = time.perf_counter()
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        groups.append((time.perf_counter() - t0) / threads)
    return statistics.median(groups)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MORANLAB_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], env: dict[str, str], log: Path) -> tuple[int, Call]:
    """Run argv to completion; wall time from spawn to reap, rusage per child."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, Call(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime)


def reduce_spans(path: Path) -> dict[str, float]:
    """Per-layer totals of one traced invocation.

    Self time is a span's thread CPU time minus that of its direct children,
    so spans of concurrent pool threads are not counted twice.
    """
    out: dict[str, float] = defaultdict(float)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        names = header["names"]
        mu = names.index("fourier.mu_hat_modulus")
        mask = names.index("fourier.mask_interval")
        series = {names.index("delsum.del_partial"), names.index("delsum.block_trend")}
        mu_starts: list[float] = []
        windows: list[tuple[float, float]] = []
        for n in header["threads"]:
            cols = [array("i"), array("i"), array("d"), array("d"), array("d"), array("d")]
            for col in cols:
                col.fromfile(fh, n)
            ids, parents, t0, t1, c0, c1 = cols
            child = [0.0] * n
            for i in range(n):
                if parents[i] >= 0:
                    child[parents[i]] += c1[i] - c0[i]
            for i in range(n):
                name = names[ids[i]]
                out[name + ".calls"] += 1
                out[name + ".self_s"] += c1[i] - c0[i] - child[i]
                out[name + ".wall_s"] += t1[i] - t0[i]
                if ids[i] == mask and parents[i] >= 0 and ids[parents[i]] == mu:
                    out["fourier.levels"] += 1
                elif ids[i] == mu:
                    mu_starts.append(t0[i])
                elif ids[i] in series:
                    windows.append((t0[i], t1[i]))
    # unique frequencies: mu_hat_modulus calls made while a series was summed
    out["delsum.unique"] = sum(1 for t in mu_starts if any(a <= t <= b for a, b in windows))
    for key, value in header["counts"].items():
        out[key] += value
    out["cli.import_s"] = header["import_s"]
    out["distribution.guard"] = header["enumeration_guard"]
    return out


def layer_metrics(p: Pass, invocations: int) -> dict[str, float]:
    """The per_layer metrics of one traced pass, from its summed totals."""
    lay = p.layers
    m = {k: v for k, v in lay.items() if k.endswith((".calls", ".self_s"))}
    m["fourier.levels_per_call"] = (
        lay["fourier.levels"] / lay["fourier.mu_hat_modulus.calls"]
        if lay["fourier.mu_hat_modulus.calls"]
        else 0.0
    )
    m["delsum.unique_ratio"] = lay["delsum.unique"] / lay["delsum.terms"] if lay["delsum.terms"] else 0.0
    m["distribution.points"] = lay["distribution.points"]
    m["distribution.guard_use"] = lay["distribution.max_interval"] / lay["distribution.guard"]
    m["measure.digits_examined"] = lay["measure.digits_examined"]
    m["cli.import_s"] = lay["cli.import_s"] / invocations
    m["cli.io_s"] = lay["cli.io.self_s"]
    for command in ("context", "fourier", "del", "partition", "normality", "uniqueness", "dimension"):
        m[f"cli.{command}.wall_s"] = lay[f"cli.{command}.wall_s"]
    m["trace.wall_s"] = p.wall
    return m


class Bench:
    def __init__(self, workload: str, seed: int, tmp: Path, expected: dict[str, str]) -> None:
        self.workload = workload
        self.steps = WORKLOADS[workload]
        self.seed = seed
        self.tmp = tmp
        self.expected = expected  # recorded digests every pass must reproduce
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}  # this run's digests, from its first pass
        self.validated: set[str] = set()
        self.count = 0
        configs = [json.loads((CONFIGS / f"{config}.json").read_text()) for _, config in self.steps]
        self.threads = max(cfg.get("workers", 1) for cfg in configs)
        self.cal = calibrate(self.threads)  # calibration measured after the last invocation
        self.cals: list[float] = []
        self.notes: list[str] = []

    def invoke(self, command: str, config: str, traced: bool) -> Call:
        self.count += 1
        work = self.tmp / str(self.count)
        out = work / "out"
        out.mkdir(parents=True)
        cfg_path = CONFIGS / f"{config}.json"
        args = [command, "--config", str(cfg_path), "--seed", str(self.seed), "--out", str(out)]
        if traced:
            launcher = [str(BENCH / "tracer.py"), str(work / "spans.bin"), str(self.count), "--"]
        else:
            launcher = ["-m", "moranlab"]
        self.attempted += 1
        before = self.cal
        rc, call = spawn([sys.executable, *launcher, *args], self.env, work / "stderr.log")
        self.cal = calibrate(self.threads)
        self.cals.append(self.cal)
        call.calibrated = call.wall * CAL_REF_S / ((before + self.cal) / 2)
        tag = f"{command}:{config}"
        problems = []
        if rc != 0:
            reason = "timeout" if rc == -signal.SIGKILL else f"exit code {rc}"
            stderr = (work / "stderr.log").read_text(errors="replace").strip()
            problems.append(f"{reason}: {stderr[-400:]}")
        else:
            produced = {f"{tag}/{name}": d for name, d in checks.artifact_digests(out).items()}
            for key, digest in produced.items():
                self.digests.setdefault(key, digest)
            source = self.expected or self.digests
            reference = {k: d for k, d in source.items() if k.startswith(tag + "/")}
            bad = sorted(k for k in set(produced) | set(reference) if produced.get(k) != reference.get(k))
            if bad:
                where = "digests.json" if self.expected else "the first pass"
                problems.append(f"digests differ from {where}: {bad}")
            if tag not in self.validated:
                self.validated.add(tag)
                problems += checks.validate(command, json.loads(cfg_path.read_text()), out)
        if problems:
            self.failed += 1
            self.failures += [f"{tag}: {p}" for p in problems]
        if traced and rc == 0:
            call.layers = reduce_spans(work / "spans.bin")
        shutil.rmtree(work)
        return call

    def run_pass(self, traced: bool, setups: list[float] | None = None) -> Pass:
        """One pass; with ``setups``, each invocation is followed by
        ``schedule`` invocations on the first config, whose calibrated wall
        times are appended there. Interleaved this way, the set-up samples
        span the whole run rather than one phase of the machine."""
        p = Pass()
        per_step = -(-SETUPS_PER_PASS // len(self.steps))
        for command, config in self.steps:
            call = self.invoke(command, config, traced)
            if setups is not None:
                setups += [self.invoke("schedule", self.steps[0][1], traced=False).calibrated for _ in range(per_step)]
            p.wall += call.wall
            p.calibrated += call.calibrated
            p.rss_mb = max(p.rss_mb, call.rss_mb)
            p.cpu_s += call.cpu_s
            for key, value in call.layers.items():
                if key in ("distribution.max_interval", "distribution.guard"):
                    p.layers[key] = max(p.layers[key], value)
                else:
                    p.layers[key] += value
        return p

    def passes(self, traced: bool, until: float, setups: list[float] | None = None) -> list[Pass]:
        done = [self.run_pass(traced, setups)]
        while time.perf_counter() < until:
            done.append(self.run_pass(traced, setups))
        return done

    def run(self, seconds: float, trace: bool) -> tuple[dict[str, float], dict[str, int]]:
        """End-to-end metrics from untraced passes; with trace, half the time
        goes to untraced passes and half to traced ones for the layer metrics."""
        first_config = self.steps[0][1]
        self.invoke("schedule", first_config, traced=False)  # warm-up: bytecode cache
        setups: list[float] = []
        start = time.perf_counter()
        plain = self.passes(False, start + (seconds / 2 if trace else seconds), setups)
        metrics = {
            "wall_s": statistics.median(p.calibrated for p in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
            "proc.wall_s": statistics.median(p.wall for p in plain),
            "proc.cpu_s": statistics.median(p.cpu_s for p in plain),
        }
        samples = dict.fromkeys(metrics, len(plain))
        samples["setup_s"] = len(setups)
        self.notes.append("pass wall_s, calibrated: " + " ".join(f"{p.calibrated:.4f}" for p in plain))
        self.notes.append("pass wall_s, as measured: " + " ".join(f"{p.wall:.4f}" for p in plain))
        if trace:
            traced = self.passes(True, start + seconds)
            per_pass = [layer_metrics(p, len(self.steps)) for p in traced]
            for name in per_pass[0]:
                values = [m.get(name, 0.0) for m in per_pass]
                if name.endswith((".calls", ".points", ".digits_examined")) and len(set(values)) > 1:
                    print(f"warning: {name} differs between traced passes: {values}", file=sys.stderr)
                metrics[name] = statistics.median(values)
                samples[name] = len(traced)
            metrics["trace.overhead_s"] = statistics.median(p.calibrated for p in traced) - metrics["wall_s"]
            samples["trace.overhead_s"] = len(traced)
        self.notes.append(
            f"calibration unit on {self.threads} thread(s): median {statistics.median(self.cals):.6f} s, "
            f"reference {CAL_REF_S} s"
        )
        return metrics, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-digests", action="store_true")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "moranlab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no moranlab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"seed": DEFAULT_SEED, "workloads": {}}
    expected = {}
    if args.seed == DEFAULT_SEED and not args.update_digests:
        if args.workload not in recorded["workloads"]:
            print(f"error: digests.json has no entry for {args.workload}", file=sys.stderr)
            return 2
        expected = recorded["workloads"][args.workload]
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP))
    try:
        seed = DEFAULT_SEED if args.update_digests else args.seed
        bench = Bench(args.workload, seed, tmp, expected)
        if args.update_digests:
            bench.invoke("schedule", bench.steps[0][1], traced=False)
            bench.run_pass(traced=False)
            recorded["workloads"][args.workload] = bench.digests
            DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
            print("\n".join(bench.failures) or f"recorded {len(bench.digests)} digests")
            return 1 if bench.failures else 0
        values, samples = bench.run(seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass

    shown = spec["end_to_end"] + (spec["per_layer"] if args.trace else [])
    # a traced layer that a workload never enters reads 0
    traced = {f"{name}.{kind}" for name, _, _ in tracer.SPANS for kind in ("calls", "self_s")}
    traced |= {name for name, _, _ in tracer.COUNTERS}
    unknown = [m["name"] for m in shown if m["name"] not in values and m["name"] not in traced]
    if unknown:
        print(f"error: BENCHMARK.json names metrics this benchmark does not measure: {unknown}", file=sys.stderr)
        return 2
    for m in shown:
        print(f"{m['name']} {values.get(m['name'], 0.0)!r} {m['unit']} (n={samples.get(m['name'], 0)})")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print("\n".join(bench.notes))
    failed = bench.failed
    print(f"error_rate {failed / bench.attempted!r} ratio (failed/attempted = {failed}/{bench.attempted})")
    for key, digest in sorted(bench.digests.items()):
        print(f"digest seed={args.seed} {key} {digest}")
    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {"correct": not bench.failures, "attempted": bench.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
