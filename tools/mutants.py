#!/usr/bin/env python3
"""Mutation check for the tests of the transform and its Dirichlet kernel, the
orders, the partition pass, the sampler and its thresholds, the orbit bins,
the digit counts, the DEL sums, the digit-system checks, the convolved
systems' avoidance data, the argument types of to_digits, digit strings and
binary_system, the checks the batch entries make before their first item,
and the command line and its config rules.

    python3 tools/mutants.py [NAME ...]

Each mutant replaces one exact snippet in one source file. The script copies
``src/``, ``tests/`` and ``bench/configs/`` into a temporary directory and
runs the target tests of every selected mutant there once, unmutated (they
must pass). Then, for each mutant, it applies the mutant to a fresh copy and
runs that mutant's targets again (at least one must fail). It prints KILLED
or SURVIVED per mutant with the failing test ids and exits 1 when a mutant
survives. The repository itself is never modified. It is not part of the
test suite: a full run of 53 mutants, all KILLED, took 1 min 50 s on a shared
2-core x86-64 VM.
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
RNG = "tests/test_rng.py"
NORMALITY = "tests/test_normality_kernel.py"
DEL = "tests/test_delsum.py"
SYSTEM = "tests/test_system.py"
KERNEL = "tests/test_dirichlet_kernel.py"
PLAN = "tests/test_fourier_plan.py"
ORDERS = "tests/test_numtheory.py"
ACCEPT = "tests/test_acceptance.py"
DIMENSION = "tests/test_dimension.py"
RADIX = "tests/test_radix.py"
BATCH = "tests/test_batch_checks.py"

# name: (file, snippet, replacement, target tests)
MUTANTS = {
    # the cut one double below the threshold
    "tail-cut-one-ulp-low": (
        "src/moranlab/fourier.py",
        "    return _float_at(lo)\n",
        "    return _float_at(lo - 1)\n",
        [f"{TABLES}::test_tail_cut_is_the_threshold"],
    ),
    # a {0,1} level whose lower gain is not positive routed to the inline
    # two-product kernel, which is exact only for a positive g_lo
    "zero-gain-routed-inline": (
        "src/moranlab/system.py",
        "if level.count > 1 or level.gain[0] <= 0.0 else",
        "if level.count > 1 else",
        [f"{PLAN}::test_fused_loop_zero_lower_gain"],
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
    # no relative pad on the Dirichlet factor's quotient of two libm sines;
    # only enclosure checks against 40-digit references run
    "sine-pad-zero": (
        "src/moranlab/fourier.py",
        "_SIN_PAD = 2.0**-47",
        "_SIN_PAD = 0.0",
        [f"{KERNEL}::test_dirichlet_brackets_the_closed_form",
         f"{KERNEL}::test_level_mask_brackets_the_digit_sum"],
    ),
    # each rounding the Dirichlet kernel adds, turned the wrong way: the
    # lower and upper ends of the padded quotient, the lower end of the
    # factor at its removable singularity, and the ends of its product with
    # the {0,1} factor. Each is caught by an mpmath bracket: of the padded
    # quotient as a real number, of the closed form at its exact zeros
    # (0) and next to its singularity (within 10^-100 of 1)
    "dirichlet-lo-rounded-up": (
        "src/moranlab/fourier.py",
        "return _down(q * (1.0 - _SIN_PAD)),",
        "return _up(q * (1.0 - _SIN_PAD)),",
        [f"{KERNEL}::test_dirichlet_rounds_the_padded_quotient_outward"],
    ),
    "dirichlet-hi-rounded-down": (
        "src/moranlab/fourier.py",
        "min(1.0, _up(q * (1.0 + _SIN_PAD)))",
        "min(1.0, _down(q * (1.0 + _SIN_PAD)))",
        [f"{KERNEL}::test_dirichlet_rounds_the_padded_quotient_outward"],
    ),
    "singularity-lo-rounded-up": (
        "src/moranlab/fourier.py",
        "_ONE_DOWN = math.nextafter(1.0, _DOWN)",
        "_ONE_DOWN = math.nextafter(1.0, _UP)",
        [f"{KERNEL}::test_dirichlet_brackets_the_closed_form"],
    ),
    "convolved-lo-rounded-up": (
        "src/moranlab/fourier.py",
        "max(0.0, _down(lo * f_lo))",
        "max(0.0, _up(lo * f_lo))",
        [f"{KERNEL}::test_mask_interval_at_exact_zeros_and_near_the_singularity"],
    ),
    "convolved-hi-rounded-down": (
        "src/moranlab/fourier.py",
        "min(1.0, _up(hi * f_hi))",
        "min(1.0, _down(hi * f_hi))",
        [f"{KERNEL}::test_mask_interval_at_exact_zeros_and_near_the_singularity"],
    ),
    # gains rounded to nearest, not outward; only the exact containment
    # checks run
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
    # each level's last threshold one short of 2^64, so the top draw
    # 2^64 - 1 falls past every digit. Only a wrong forced end can show:
    # the weight check makes the running total end at the denominator, so
    # a computed last threshold would be 2^64 as well
    "thresholds-last-not-forced": (
        "src/moranlab/system.py",
        "numerators[:-1])), 1 << 64)",
        "numerators[:-1])), (1 << 64) - 1)",
        [f"{RNG}::test_thresholds_partition_the_range",
         f"{SAMPLING}::test_cumulative_thresholds_match_fraction_sums",
         f"{SYSTEM}::test_unshared_system_equals_the_shared_one"],
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
    # the one-digit bin tables of bases above 256 bin a straddling window
    # like any other, instead of resolving it from the longer window
    "large-base-bins-ignore-straddles": (
        "src/moranlab/measure.py",
        "            edges = _straddling(span)\n",
        "            edges = _straddling(span) if b <= _BYTE_BASES else frozenset()\n",
        [f"{NORMALITY}::test_bin_counts_match_the_remainder_walk_near_bin_edges",
         f"{NORMALITY}::test_bin_counts_match_the_remainder_walk"],
    ),
    # to_digits takes any N that compares with 0, so a bool is written out
    # as the digits of 0 or 1
    "to-digits-type-unchecked": (
        "src/moranlab/radix.py",
        "    if isinstance(N, bool) or not isinstance(N, int) or N < 0:\n",
        "    if N < 0:\n",
        [f"{RADIX}::test_caller_errors"],
    ),
    # a digit string takes any digit inside its base's range, float or bool
    "digit-class-unchecked": (
        "src/moranlab/radix.py",
        "if dgt.__class__ is not int or not 0 <= dgt < b:",
        "if not 0 <= dgt < b:",
        [f"{RADIX}::test_caller_errors"],
    ),
    # binary_system converts any omega to a Fraction, so "1/2" or 0.5 reads
    # as one half and None ends in a bare TypeError
    "binary-omega-unchecked": (
        "src/moranlab/system.py",
        "    if isinstance(omega, bool) or not isinstance(omega, (Fraction, int)):\n",
        "    if False:\n",
        [f"{SYSTEM}::test_caller_errors"],
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
    # a convolved system without special levels reads avoidance_lo as
    # max() of nothing, a bare ValueError
    "avoidance-lo-special-levels-unchecked": (
        "src/moranlab/dimension.py",
        "        if not self.special_levels:\n",
        "        if False:\n",
        [f"{DIMENSION}::test_avoidance_lo_without_special_levels_is_an_invalid_interval"],
    ),
    # a special level 0 or past the depth accepted as it is
    "special-level-range-unchecked": (
        "src/moranlab/dimension.py",
        "not (special_levels[0] >= 1 and special_levels[-1] <= depth)",
        "False",
        [f"{DIMENSION}::test_convolved_validation_errors"],
    ),
    # at t = 1/2 the {0,1} factor through the padded cosine, as convolved
    # levels took it, instead of the exact half path
    "half-mask-path-dropped": (
        "src/moranlab/fourier.py",
        "_half_mask(level.pair) if r + r == P else _binary_mask",
        "_binary_mask",
        [f"{KERNEL}::test_mask_interval_at_one_half_is_the_exact_half_mask_times_the_factor"],
    ),
    # the batch table leaves eps to the first frequency's transform, so an
    # empty batch writes a file for any eps
    "batch-table-eps-unchecked": (
        "src/moranlab/fourier.py",
        "    check_eps(eps)\n    sys._transform_levels  #",
        "    sys._transform_levels  #",
        [f"{BATCH}::test_write_batch_csv_rejects_eps_with_no_frequencies"],
    ),
    # the batch table leaves the system's level kinds to the first transform
    "batch-table-levels-unchecked": (
        "src/moranlab/fourier.py",
        "    sys._transform_levels  # InvalidParameter on a level of neither kind\n    rows",
        "    rows",
        [f"{BATCH}::test_batch_table_rejects_a_system_of_neither_kind_with_no_frequencies"],
    ),
    # block_trend leaves eps to the first modulus of its first row
    "block-trend-eps-unchecked": (
        "src/moranlab/delsum.py",
        "binary digit systems only\")\n    check_eps(eps)\n",
        "binary digit systems only\")\n",
        [f"{BATCH}::test_block_trend_rejects_eps_with_an_empty_r_range"],
    ),
    # no r checked up front: a bad r fails only once its row is built, after
    # the rows before it have run their transforms
    "block-trend-r-unchecked-up-front": (
        "src/moranlab/delsum.py",
        "        if isinstance(r, bool) or not isinstance(r, int) or not 1 <= r <= len(sch.q):\n"
        "            raise InvalidParameter(f\"r = {r!r} outside 1 .. {len(sch.q)}\")\n"
        "        if sch.N[r] > BLOCK_GUARD:",
        "        if r in range(1, len(sch.q) + 1) and sch.N[r] > BLOCK_GUARD:",
        [f"{BATCH}::test_block_trend_checks_every_r_before_any_transform"],
    ),
    # the block guard of each r left to its row, after the rows before it
    "block-trend-guard-late": (
        "src/moranlab/delsum.py",
        "        if sch.N[r] > BLOCK_GUARD:",
        "        if False:",
        [f"{BATCH}::test_block_trend_checks_every_block_guard_before_any_transform"],
    ),
    # m left unchecked until its frequencies are built, so an empty r range
    # passes any m
    "block-trend-m-unchecked": (
        "src/moranlab/delsum.py",
        "if isinstance(m, bool) or not isinstance(m, int) or m < 0:",
        "if False:",
        [f"{BATCH}::test_block_trend_rejects_m_with_an_empty_r_range",
         f"{BATCH}::test_block_trend_checks_every_m_before_any_transform"],
    ),
    # sample_batch checks the count first, so zero samples hide a bad depth
    "sample-batch-depth-late": (
        "src/moranlab/measure.py",
        "    _check_depth(sys, depth)\n    if count < 1:",
        "    if count < 1:",
        [f"{BATCH}::test_sample_batch_checks_depth_before_count"],
    ),
    # the normality batch leaves the depth to its first sample
    "normality-batch-depth-unchecked": (
        "src/moranlab/measure.py",
        "    _check_depth(sys, depth)\n    _checked(0, bases, count, guard)\n",
        "    _checked(0, bases, count, guard)\n",
        [f"{BATCH}::test_normality_batch_checks_with_zero_samples"],
    ),
    # the normality batch leaves bases, count and guard to its first report
    "normality-batch-arguments-unchecked": (
        "src/moranlab/measure.py",
        "    _checked(0, bases, count, guard)\n",
        "",
        [f"{BATCH}::test_normality_batch_checks_with_zero_samples"],
    ),
    # the uniqueness batch checks the depth before j_max
    "uniqueness-batch-depth-before-j-max": (
        "src/moranlab/measure.py",
        "    levels = _avoidance_levels(sys, j_max)\n    _check_depth(sys, depth)\n",
        "    _check_depth(sys, depth)\n    levels = _avoidance_levels(sys, j_max)\n",
        [f"{BATCH}::test_uniqueness_batch_checks_with_zero_samples"],
    ),
    # the uniqueness batch leaves the depth to its first sample
    "uniqueness-batch-depth-unchecked": (
        "src/moranlab/measure.py",
        "    levels = _avoidance_levels(sys, j_max)\n    _check_depth(sys, depth)\n",
        "    levels = _avoidance_levels(sys, j_max)\n",
        [f"{BATCH}::test_uniqueness_batch_checks_with_zero_samples",
         f"{CLI}::test_uniqueness_sample_count_is_checked_after_j_max_and_depth"],
    ),
    # the uniqueness batch reads the avoidance interval only when it samples
    "uniqueness-batch-interval-late": (
        "src/moranlab/measure.py",
        "    lo = _avoidance_lo(sys)\n    pad",
        "    lo = _avoidance_lo(sys) if samples else None\n    pad",
        [f"{BATCH}::test_uniqueness_batch_rejects_an_empty_interval_with_zero_samples"],
    ),
    # the del rule dropped: an empty or out-of-schedule block range reaches
    # block_trend after the series is summed
    "del-block-range-rule-dropped": (
        "src/moranlab/cli.py",
        "and not 1 <= r_lo <= r_hi <= len(sch.q):",
        "and False:",
        [f"{CLI}::test_del_rejected_block_report_writes_nothing"],
    ),
    # the normality rule leaves the bases to the batch entry, after the count
    "normality-rule-bases-after-count": (
        "src/moranlab/cli.py",
        "    measure._checked(0, values[\"bases\"], None, 0)\n",
        "",
        [f"{CLI}::test_normality_checks_bases_and_count_up_front"],
    ),
    # the dimension rule lets band_hi reach the schedule depth
    "dimension-rule-band-hi-unbounded": (
        "src/moranlab/cli.py",
        "    if band_hi >= depth:",
        "    if False:",
        [f"{CLI}::test_dimension_range_errors_name_their_keys"],
    ),
    # a kind rule takes any kind: an unknown system kind runs as binary
    "kind-rule-takes-anything": (
        "src/moranlab/cli.py",
        "        if values[\"kind\"] not in choices:",
        "        if False:",
        [f"{CLI}::test_config_shape_errors", f"{CLI}::test_uniqueness_unknown_kind"],
    ),
    # only the first context pair checked: a single-pair command runs on a
    # bad later b or h, and context prints the pairs before it
    "context-pairs-first-only": (
        "src/moranlab/cli.py",
        "    for b, h in pairs:\n        radix.check_pair(b, h)\n",
        "    for b, h in pairs[:1]:\n        radix.check_pair(b, h)\n",
        [f"{CLI}::test_single_pair_commands_check_every_pair",
         f"{CLI}::test_context_checks_every_pair_before_the_first_is_built"],
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
