"""
Convolutions, ball bounds, and gauge functions
==============================================

Convolving the measure with a suitable digit companion pushes its local
dimension up to 1, or tunes it to a gauge phi(r). The ball estimates below
are exact rational counts, compared against the target phi on a grid of
radii r = 1/P_m.
"""

import math
from fractions import Fraction

from moranlab import (
    GaugeFunction,
    ball_measure,
    binary_system,
    build_convolved,
    build_schedule,
    h_of_r,
    h_rate_report,
    local_dim_series,
    running_min_after,
    sample_batch,
    sparse_index_set,
)

sch = build_schedule(d=2, count=7)
mu = binary_system(sch, omega=Fraction(1, 2))

# h(r) counts the schedule levels a radius-r ball can see
for m in (1, 3, 6):
    r = Fraction(1, sch.prefix_product(m))
    print(f"h(1/P_{m}) = {h_of_r(r, sch)}")

# dim-one companion: every level special, eta(B(x, r)) <= 8 sqrt(r)
one = build_convolved(mu, "dim-one")
pt = sample_batch(one, seed=3, depth=sch.depth, count=1)[0]
print("\ndim-one variant, one sampled point:")
for m in (2, 4, 6):
    r = Fraction(1, sch.prefix_product(m))
    ball = ball_measure(pt.value, r, one)
    print(f"  m={m}: eta(B) = {float(ball):.3e} <= 8 sqrt(r) = {8 * math.sqrt(r):.3e}")

series = local_dim_series(pt, one, depth=sch.depth)
print(f"  local dimension series tail min: {running_min_after(series, burn_in=10):.4f}")

# gauge companion: special levels are sparse, certified against ln g
phi = GaugeFunction("r_times_log_power", 1.0)
gauged = build_convolved(mu, "gauge", phi=phi)
print(f"\ngauge r log(1/r): special levels {gauged.special_levels}")
cert = sparse_index_set(lambda r: math.log(-math.log(float(r))), sch)
print(f"direct sparse-set call agrees: {cert.levels == gauged.special_levels}")

pt = sample_batch(gauged, seed=3, depth=sch.depth, count=1)[0]
for m in (2, 4, 6):
    r = Fraction(1, sch.prefix_product(m))
    ball = ball_measure(pt.value, r, gauged)
    print(f"  m={m}: eta(B) = {float(ball):.3e} <= 4 phi(r) = {4 * phi.value(r):.3e}")

# h(r)/log(1/r) decays on nth-prime schedules; the rate drives the gauge zoo
rows = h_rate_report(sch, [Fraction(1, sch.prefix_product(m)) for m in range(1, 8)])
print("\nh(r)/log(1/r) along r = 1/P_m:", " ".join(f"{row.ratio:.4f}" for row in rows))
