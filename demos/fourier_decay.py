"""
Certified Fourier decay of a Cantor-Moran measure
=================================================

The transform is an infinite product of digit masks. Finitely many factors
are evaluated with exact fractional parts; the rest are bracketed by a
closed-form tail bound, so every modulus comes back as a certified interval.
"""

from fractions import Fraction

from moranlab import (
    binary_system,
    build_convolved,
    build_schedule,
    digit_decay_bound,
    mu_hat_modulus,
)

sch = build_schedule(d=2, count=7)
mu = binary_system(sch, omega=Fraction(1, 2))

print("certified |mu^(xi)| intervals:")
for xi in (0, 1, 847, 1860859, 10**12 + 7):
    c = mu_hat_modulus(xi, mu, eps=1e-9)
    print(f"  xi={xi:<14} [{c.lo:.12f}, {c.hi:.12f}]  truncated at level {c.truncation_level}")

# along xi = h(b^n - b^m) the modulus decays like gamma^w where w counts
# middle-third digits of the frequency and gamma comes from the weights
print("\ndigit-decay bound along xi = 2^n - 2^m:")
for n, m in ((6, 1), (10, 2), (20, 3)):
    xi = 2**n - 2**m
    w, bound = digit_decay_bound(xi, mu)
    print(f"  n={n:<3} m={m}: {w} counted digits, |mu^| <= {bound:.6f}")

# convolving with a second measure can only shrink the transform
eta = build_convolved(mu, "dim-one")
for xi in (847, 12345):
    a = mu_hat_modulus(xi, mu, eps=1e-9)
    b = mu_hat_modulus(xi, eta, eps=1e-9)
    print(f"\nxi={xi}: |mu^| >= {a.lo:.9f}, |(mu*nu)^| <= {b.hi:.9f}")
