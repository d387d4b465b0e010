"""
Sampled points: digit statistics and avoidance
==============================================

Points drawn from the measure are normal in no integer base; their digit
expansions in the schedule's own mixed radix avoid a fixed fraction of each
digit range. Both effects are visible at modest depth.
"""

from fractions import Fraction

from moranlab import (
    binary_system,
    build_convolved,
    build_schedule,
    normality_report,
    sample_batch,
    uniqueness_avoidance,
)

deep = build_schedule(d=2, count=20)
mu = binary_system(deep, omega=Fraction(1, 2))

pt = sample_batch(mu, seed=20260816, depth=deep.depth, count=1)[0]
print(f"one sample at depth {pt.depth}:")
for rep in normality_report(pt.value, bases=(2, 3, 10), guard=8):
    freqs = " ".join(f"{float(f):.3f}" for f in rep.frequencies)
    print(f"  base {rep.base:2d}: {rep.trusted_digit_count:4d} trusted digits, "
          f"freqs [{freqs}], max deviation {float(rep.max_deviation):.4f}")

# the attractor's own digits stay in the bottom half of each level's range,
# so the dilated fractional parts {k_j x} keep clear of an interval below 1
small = build_schedule(d=2, count=4)
plain = binary_system(small, omega=Fraction(1, 2))
pts = sample_batch(plain, seed=7, depth=small.depth, count=200)
verdicts = [uniqueness_avoidance(p.value, plain, j_max=small.depth - 1) for p in pts]
lo = verdicts[0].interval_lo
print(f"\nplain measure:     {sum(v.passed for v in verdicts)}/200 pass, "
      f"avoided interval ({lo}, 1)")

conv = build_convolved(plain, "dim-one")
pts = sample_batch(conv, seed=7, depth=small.depth, count=200)
j_max = max(1, len(conv.special_levels) - 1)
verdicts = [uniqueness_avoidance(p.value, conv, j_max=j_max) for p in pts]
lo = verdicts[0].interval_lo
print(f"convolved variant: {sum(v.passed for v in verdicts)}/200 pass, "
      f"avoided interval ({lo}, 1)")
