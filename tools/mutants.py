#!/usr/bin/env python3
"""Mutation check for the tests of the transform, the window verdict, the
orders, the partition pass, the schedule check, the sampler, the orbit bins,
the digit counts, the DEL sums, the digit-system checks, the convolved
systems' avoidance levels, the custom gauge table and the command line.

    python3 tools/mutants.py [NAME ...]

Each mutant replaces one exact snippet in one source file. The script copies
``src/``, ``tests/`` and ``bench/configs/`` into a temporary directory and
runs the target tests of every selected mutant there once, unmutated (they
must pass). Then, for each mutant, it applies the mutant to a fresh copy and
runs that mutant's targets again (at least one must fail). It prints KILLED
or SURVIVED per mutant with the failing test ids and exits 1 when a mutant
survives. The repository itself is never modified. It is not part of the
test suite: a full run of 27 mutants took 1 min 57 s on a shared 2-core x86-64 VM.
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
SAMPLING = "tests/test_sampling_kernels.py"
NORMALITY = "tests/test_normality_kernel.py"
DEL = "tests/test_delsum.py"
SYSTEM = "tests/test_system.py"
PLAN = "tests/test_fourier_plan.py"
ORDERS = "tests/test_numtheory.py"
ACCEPT = "tests/test_acceptance.py"
DIMENSION = "tests/test_dimension.py"

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
        "range(top, -1, -1)",
        "range(min(top + 1, len(prefix) - 1), 0, -1)",
        [f"{TABLES}::test_table_loop_matches_level_mask_loop",
         f"{TABLES}::test_table_loop_matches_level_mask_loop_at_residue_edges"],
    ),
    # the upper digit window end 2 q / 3 instead of 2 floor(q / 3)
    "decay-window-unfloored": (
        "src/moranlab/radix.py",
        "    return third, 2 * third\n",
        "    return third, 2 * q // 3\n",
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
    # every level off the inline {0,1} path in the transform loop widened
    # to [0, 1], r = 0 kept exact
    "fallback-level-widened": (
        "src/moranlab/fourier.py",
        "            m_lo, m_hi = _level_mask(level, r, P)\n",
        "            m_lo, m_hi = (0.0, 1.0) if r else (1.0, 1.0)\n",
        [f"{PLAN}::test_fused_loop_clamped_cosine",
         f"{PLAN}::test_fused_loop_zero_lower_gain",
         f"{PLAN}::test_fused_loop_mixed_binary_and_wide_levels"],
    ),
    # the order mod 2^e descends from 2^(e-1), the wrong modulus
    "two-power-order-wrong-modulus": (
        "src/moranlab/numtheory.py",
        "_order_from_exponent(a, 1 << e, {2: e})",
        "_order_from_exponent(a, 1 << (e - 1), {2: e})",
        [f"{ACCEPT}::test_criterion_01_order_oracles",
         f"{ORDERS}::test_two_power_orders_far_past_brute_range"],
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
    # the finalizer's first shift not masked to its lane: the next level's
    # low bits land in the lane's upper half, and the multiplication carries
    # them into the next lane
    "lane-mask-dropped": (
        "src/moranlab/measure.py",
        "    u = z ^ ((z >> 30) & lanes)\n",
        "    u = z ^ (z >> 30)\n",
        [f"{SAMPLING}::test_sample_point_lanes_match_value_at_across_the_wrap",
         f"{SAMPLING}::test_sample_point_matches_value_at_and_pick"],
    ),
    # a window that straddles a bin edge binned by the table like any other,
    # instead of being resolved from the longer window or the remainder
    "straddle-window-binned": (
        "src/moranlab/measure.py",
        "_STRADDLES if A in edges else A * _DISCREPANCY_BINS // span",
        "A * _DISCREPANCY_BINS // span",
        [f"{NORMALITY}::test_bin_counts_match_the_remainder_walk_near_bin_edges",
         f"{NORMALITY}::test_bin_counts_match_the_remainder_walk"],
    ),
    # the smallest count taken over the values that occur, even when some
    # value is absent and so counts 0
    "normality-bottom-not-zeroed": (
        "src/moranlab/measure.py",
        "bottom = min(tallies) if len(counts) == b else 0",
        "bottom = min(tallies)",
        [f"{NORMALITY}::test_max_deviation_counts_an_absent_value_as_zero"],
    ),
    # the DEL sums taken left to right instead of correctly rounded
    "del-sum-left-to-right": (
        "src/moranlab/delsum.py",
        "    return math.fsum(xs), 4.0 * 2.0**-53 * reduce(add, xs, 0.0)\n",
        "    return reduce(add, xs, 0.0), 4.0 * 2.0**-53 * reduce(add, xs, 0.0)\n",
        [f"{DEL}::test_sum_and_slop_matches_exact_examples",
         f"{DEL}::test_sum_and_slop_matches_fraction_sums",
         f"{DEL}::test_del_partial_sums_each_row_in_column_order"],
    ),
    # the slop's mass correctly rounded instead of summed left to right
    "del-mass-fsum": (
        "src/moranlab/delsum.py",
        "    return math.fsum(xs), 4.0 * 2.0**-53 * reduce(add, xs, 0.0)\n",
        "    return math.fsum(xs), 4.0 * 2.0**-53 * math.fsum(xs)\n",
        [f"{DEL}::test_sum_and_slop_matches_exact_examples",
         f"{DEL}::test_sum_and_slop_matches_fraction_sums"],
    ),
    # a level that differs from an earlier one only in its last column
    # (the weights of a MoranSystem) skipped as already checked
    "first-levels-drops-last-column": (
        "src/moranlab/system.py",
        "        key = tuple(map(id, args))\n",
        "        key = tuple(map(id, args[:-1]))\n",
        [f"{SYSTEM}::test_bad_level_is_reported_at_its_first_level",
         f"{SYSTEM}::test_first_bad_level_wins_across_kinds"],
    ),
    # the window verdict sampled at the first level only
    "window-first-level-only": (
        "src/moranlab/system.py",
        "for level in dict.fromkeys(self._levels)",
        "for level in dict.fromkeys(self._levels[:1])",
        [f"{TABLES}::test_window_verdict_matches_the_fraction_grid",
         f"{TABLES}::test_window_verdict_sees_a_late_failing_level"],
    ),
    # the window verdict's slack widened from 1e-12 to 0.2
    "window-slack-widened": (
        "src/moranlab/system.py",
        "self._window_gamma + 1e-12",
        "self._window_gamma + 0.2",
        [f"{TABLES}::test_window_verdict_matches_the_fraction_grid",
         f"{TABLES}::test_window_verdict_sees_a_late_failing_level"],
    ),
    # the one-digit bin tables of bases above 256 bin a straddling window
    # like any other, instead of resolving it from the longer window
    "large-base-bins-ignore-straddles": (
        "src/moranlab/measure.py",
        "            edges = _straddling(span)\n",
        "            edges = _straddling(span) if b <= _BYTE_BASES else frozenset()\n",
        [f"{NORMALITY}::test_bin_counts_match_the_remainder_walk_near_bin_edges",
         f"{NORMALITY}::test_bin_counts_match_the_remainder_walk"],
    ),
    # a context built on another schedule accepted as it is
    "schedule-check-skipped": (
        "src/moranlab/delsum.py",
        "        if other is not sch and (other.q, other.ell) != (sch.q, sch.ell):\n",
        "        if False:\n",
        [f"{DEL}::test_block_trend_rejects_context_of_another_schedule"],
    ),
    # a custom gauge table with a NaN or infinite value accepted, so the
    # gauge evaluates to nan or inf
    "custom-gauge-nonfinite-accepted": (
        "src/moranlab/dimension.py",
        "            if not all(0 < v < math.inf for v in vs):  # NaN fails too\n",
        "            if False:\n",
        [f"{DIMENSION}::test_gauge_custom_table_outside_its_domain_is_rejected"],
    ),
    # a convolved system's dilations taken at the plain levels 2 .. j_max + 1,
    # not at its special levels: the override is renamed away
    "convolved-avoidance-as-plain": (
        "src/moranlab/dimension.py",
        "    def _avoidance_levels(self, j_max: int) -> tuple[int, ...]:\n",
        "    def _unused_avoidance_levels(self, j_max: int) -> tuple[int, ...]:\n",
        [f"{DIMENSION}::test_uniqueness_avoidance_convolved",
         f"{SAMPLING}::test_avoidance_runs_certificate_fallback_and_fail"],
    ),
    # a special level 0 or past the depth accepted as it is
    "special-level-range-unchecked": (
        "src/moranlab/dimension.py",
        "not (special_levels[0] >= 1 and special_levels[-1] <= depth)",
        "False",
        [f"{DIMENSION}::test_convolved_validation_errors"],
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


def _copy(copy: Path) -> None:
    for part in ("src", "tests", "bench/configs", "pyproject.toml"):
        src = ROOT / part
        if src.is_dir():
            shutil.copytree(src, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, copy / part)


def run(name: str, work: Path) -> bool:
    path, snippet, replacement, targets = MUTANTS[name]
    copy = work / name
    _copy(copy)
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
    names = args.names or list(MUTANTS)
    with tempfile.TemporaryDirectory(prefix="moranlab-mutants-") as tmp:
        work = Path(tmp)
        # one unmutated run of every selected mutant's targets
        _copy(work / "unmutated")
        targets = list(dict.fromkeys(t for name in names for t in MUTANTS[name][3]))
        code, failed = _pytest(work / "unmutated", targets)
        if code != 0:
            raise SystemExit(f"target tests fail before mutation: {failed}")
        results = [run(name, work) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
