"""
Digit-partition combinatorics
=============================

The orbit {h b^i mod N_r / Q} splits into J classes of equal size, the classes
refine coherently across levels, and the number of classes meeting k "bad"
digit positions obeys an exact binomial bound. Everything here is enumerated
and certified, not sampled.
"""

from moranlab import (
    C_bound,
    PrimeSchedule,
    build_context,
    check_peak_bound,
    classify_Bk,
    fiber_counts,
    verify_partition,
)

# the partition reads only (b, h) and the schedule, all held by the context
ctx = build_context(2, 1, PrimeSchedule(d=1, q=(7, 11), ell=(1, 2)))

cert = verify_partition(ctx.n0, ctx, r=2)
print(f"partition at r=2: interval length {cert.length}, J={cert.J}, "
      f"{len(cert.classes)} classes of size {cert.y_size}")

table = fiber_counts((cert.I_start, cert.length), ctx, s=1)
sizes = {c for _, c in table.fibers}
print(f"refinement s=1 -> s=2: prefix image sizes {dict(table.image_sizes)}, "
      f"{len(table.fibers)} fibers, each with {sizes} preimages")

# one histogram: how many classes meet exactly k bad positions
labels = cert.classes[0]
hist = classify_Bk(labels, ctx, r=2)
u = len(hist) - 1
print(f"\nclass 0 spread over k=0..{u} bad positions: {hist}")
for k, count in enumerate(hist):
    cap = C_bound(k, u, ctx, r=2)
    print(f"  k={k}: {count} <= {float(cap):.3f}")

# the peak-term inequality that drives the tail estimate, at the smallest
# admissible u
lhs, rhs = check_peak_bound(6000)
print(f"\npeak bound at u=6000: lhs/rhs = {float(lhs / rhs):.3e} (holds: {lhs <= rhs})")
