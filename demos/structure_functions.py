#!/usr/bin/env python3
"""Tour of the deformed structure functions.

The ladder weights of every deformation scheme in this library come from
one analytic family,

    f(n) = (p**(-alpha*n - beta) - q**(alpha*n + beta)) / (p**(-l) - q**l),

and the classical schemes are points of it: Arik-Coon is p = 1, the
symmetric bracket p = q, the plain two-base bracket alpha = 1, beta = 0.
This script evaluates each scheme with f_general at its parameters, next to
the undeformed oscillator's n/2, cross-checks the general form against an
explicit finite sum, and shows the p <-> 1/q symmetry.
"""

import numpy as np

from pqosc import dual, f_general, pq_sum_oracle, validate


def section(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


section("Catalog values at small n")
schemes = [
    ("Arik-Coon q=0.5", validate(1.0, 0.5, 1.0, 0.0, 1.0)),
    ("symmetric bracket q=2", validate(2.0, 2.0, 1.0, 0.0, 1.0)),
    ("two-base p=2, q=3, l=1", validate(2.0, 3.0, 1.0, 0.0, 1.0)),
]
rows = [("standard oscillator", [0.5 * n for n in range(5)])]
rows += [(name, [f_general(n, params) for n in range(5)]) for name, params in schemes]
print(f"{'scheme':>24} | " + " | ".join(f"n={n}" for n in range(5)))
for name, values in rows:
    print(f"{name:>24} | " + " | ".join(f"{v:9.4f}" for v in values))

section("General form vs. the finite-sum oracle (alpha=1, beta=0, l=1)")
params = validate(2.0, 3.0, 1.0, 0.0, 1.0)
print(f"{'n':>3} {'f_general':>14} {'oracle':>14} {'|dev|':>10}")
worst = 0.0
for n in range(9):
    a = f_general(n, params)
    b = pq_sum_oracle(n, 2.0, 3.0)
    worst = max(worst, abs(a - b))
    print(f"{n:>3} {a:>14.6f} {b:>14.6f} {abs(a - b):>10.2e}")
print(f"worst deviation: {worst:.2e} -> {'PASS' if worst < 1e-10 else 'FAIL'}")

section("Duality p -> 1/q, q -> 1/p leaves f invariant")
params = validate(0.7, 1.9, 2.0, 0.3, 0.5)
other = dual(params)
ns = np.arange(-10, 10.5, 0.5)
devs = [abs(f_general(n, params) - f_general(n, other)) / (1 + abs(f_general(n, params)))
        for n in ns]
print(f"max relative deviation over n in [-10, 10]: {max(devs):.2e}")
print("PASS" if max(devs) < 1e-12 else "FAIL")
