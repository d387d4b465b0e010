#!/usr/bin/env python3
"""Mutation check for the tests of the transform, the partition pass and the
command line.

    python3 tools/mutants.py [NAME ...]

Each mutant replaces one exact snippet in one source file. The script copies
``src/``, ``tests/`` and ``bench/configs/`` into a temporary directory, runs
the mutant's target tests there unmutated (they must pass), applies the
mutant and runs them again (at least one must fail). It prints KILLED or
SURVIVED per mutant with the failing test ids and exits 1 when a mutant
survives. The repository itself is never modified. It is not part of the
test suite: a run takes under a minute.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TABLES = "tests/test_transform_tables.py"
ORACLE = "tests/test_binary_mask_oracle.py"
WEIGHTS = "tests/test_weight_enclosures.py"
CLI = "tests/test_cli.py"
STARTUP = "tests/test_startup.py"
DIST = "tests/test_distribution.py"

# name: (file, snippet, replacement, target tests)
MUTANTS = {
    # the cut one double below the threshold
    "tail-cut-one-ulp-low": (
        "src/moranlab/fourier.py",
        "    return _float_at(lo)\n",
        "    return _float_at(lo - 1)\n",
        [f"{TABLES}::test_tail_cut_is_the_threshold"],
    ),
    # g_hi and g_lo trade places in the loop table
    "gain-ends-swapped": (
        "src/moranlab/system.py",
        "else level.gain)",
        "else level.gain[::-1])",
        [f"{TABLES}::test_table_loop_matches_level_mask_loop",
         f"{TABLES}::test_table_loop_matches_level_mask_loop_on_a_del_grid",
         f"{TABLES}::test_table_loop_matches_level_mask_loop_at_deep_frequencies",
         f"{TABLES}::test_level_table_rows"],
    ),
    # each level's residue taken mod the next level's modulus, P_(n+1),
    # instead of its own: congruent mod P_n, so only the float t = r / P_n
    # moves, which the enclosure checks against mpmath do not see
    "residue-chain-wrong-modulus": (
        "src/moranlab/fourier.py",
        "reversed(moduli[: bisect_right(moduli, xi)])",
        "reversed(moduli[1 : bisect_right(moduli, xi) + 1])",
        [f"{TABLES}::test_table_loop_matches_level_mask_loop",
         f"{TABLES}::test_table_loop_matches_level_mask_loop_at_residue_edges"],
    ),
    # the upper digit window end 2 q / 3 instead of 2 floor(q / 3)
    "decay-window-unfloored": (
        "src/moranlab/system.py",
        "2 * (q // 3)",
        "2 * q // 3",
        [f"{TABLES}::test_decay_windows_match_the_per_level_loop"],
    ),
    # no trigonometric pad; only enclosure checks against the oracle run
    "trig-pad-zero": (
        "src/moranlab/fourier.py",
        "_TRIG_PAD = 2.0**-48",
        "_TRIG_PAD = 0.0",
        [ORACLE],
    ),
    # weights and gains rounded to nearest, not outward; only the exact
    # containment checks run
    "fraction-interval-not-outward": (
        "src/moranlab/fourier.py",
        "    return _down(f), _up(f)\n",
        "    return f, f\n",
        [WEIGHTS],
    ),
    # each point's occurrence index counted from 1 instead of 0
    "partition-occurrence-off-by-one": (
        "src/moranlab/distribution.py",
        "        c = get(key, 0)\n",
        "        c = get(key, 1)\n",
        [f"{DIST}::test_partition_fibers_match_pi_map",
         f"{DIST}::test_verify_partition_classes_match_pi_map_reference"],
    ),
    # the residue recurrence's constant h b^m without its factor (b - 1)
    "recurrence-constant-without-b-minus-1": (
        "src/moranlab/distribution.py",
        "c = ctx.h * bm * (b - 1) % modulus",
        "c = ctx.h * bm % modulus",
        [f"{DIST}::test_residue_recurrence_matches_running_powers",
         f"{DIST}::test_partition_fibers_match_pi_map",
         f"{DIST}::test_fiber_counts_matches_digit_rows"],
    ),
    # an unknown flag or stray argument is dropped, not reported
    "unknown-flag-accepted": (
        "src/moranlab/cli.py",
        "            stray = stray or arg\n",
        "            pass\n",
        [f"{CLI}::test_parser_matches_argparse", f"{CLI}::test_flag_validation"],
    ),
    # the --seed value is kept as the string given
    "seed-flag-unchecked": (
        "src/moranlab/cli.py",
        "                    value = int(value)\n",
        "                    pass\n",
        [f"{CLI}::test_parser_matches_argparse"],
    ),
    # the process ends without flushing stdout
    "exit-skips-flush": (
        "src/moranlab/cli.py",
        "    for stream in (sys.stdout, sys.stderr):\n",
        "    for stream in (sys.stderr,):\n",
        [f"{STARTUP}::test_every_stdout_line_arrives_through_a_pipe_and_into_a_file"],
    ),
    # the process ends without running the atexit callbacks
    "exit-skips-atexit": (
        "src/moranlab/cli.py",
        "    atexit._run_exitfuncs()\n",
        "    pass\n",
        [f"{STARTUP}::test_atexit_callback_runs_exactly_once"],
    ),
}


def _pytest(copy: Path, targets: list[str]) -> tuple[int, list[str]]:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *targets],
        cwd=copy,
        env=env,
        capture_output=True,
        text=True,
    )
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return proc.returncode, failed


def run(name: str, work: Path) -> bool:
    path, snippet, replacement, targets = MUTANTS[name]
    copy = work / name
    for part in ("src", "tests", "bench/configs", "pyproject.toml"):
        src = ROOT / part
        if src.is_dir():
            shutil.copytree(src, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, copy / part)
    code, failed = _pytest(copy, targets)
    if code != 0:
        raise SystemExit(f"{name}: target tests fail before mutation: {failed}")
    target = copy / path
    text = target.read_text()
    if text.count(snippet) != 1:
        raise SystemExit(f"{name}: snippet {snippet!r} occurs {text.count(snippet)} times in {path}")
    target.write_text(text.replace(snippet, replacement))
    code, failed = _pytest(copy, targets)
    killed = code != 0
    print(f"{name}: {'KILLED' if killed else 'SURVIVED'}")
    for test in failed:
        print(f"    {test}")
    return killed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help=", ".join(MUTANTS))
    args = parser.parse_args()
    unknown = set(args.names) - set(MUTANTS)
    if unknown:
        parser.error(f"unknown mutants: {sorted(unknown)}")
    with tempfile.TemporaryDirectory(prefix="moranlab-mutants-") as tmp:
        results = [run(name, Path(tmp)) for name in (args.names or MUTANTS)]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
