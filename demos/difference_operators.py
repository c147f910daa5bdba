#!/usr/bin/env python3
"""The difference-operator realization on monomials.

The same ladder algebra acts on real powers of z, each operator sending
one term c * z**e to one term:

    a    difference derivative   z**e -> f(e) * z**(e - l/alpha)
    a+   multiplication          z**e -> z**(e + l/alpha)
    N    scaled Euler operator   z**e -> alpha*e * z**e

with p**(-alpha*N - beta) and q**(alpha*N + beta) acting as dilations.
The script walks a monomial up and down the ladder and verifies the
relations exponent by exponent, including away from integer powers.
"""

from pqosc import check_realization, validate
from pqosc.calculus import dilation_map, lower_map, raise_map


def show(label, term):
    e, c = term
    print(f"  {label}: {c:.6g} z^{e:g}" if c else f"  {label}: 0")


params = validate(2.0, 3.0, 1.0, 0.0, 1.0)
a, a_dag = lower_map(params), raise_map(params)
print("parameters p=2, q=3, alpha=1, beta=0, l=1")
m = (2.0, 1.0)
show("z^2", m)
show("a z^2", a(*m))
show("a+ z^2", a_dag(*m))
show("a a+ z^2", a(*a_dag(*m)))
show("q^(alpha N + beta) z^2", dilation_map(ratio=3.0, prefactor=1.0)(*m))
show("a 1", a(0.0, 1.0))

print("\nrelation residuals on monomials, several parameter sets:")
cases = [
    (2.0, 3.0, 1.0, 0.0, 1.0),
    (2.0, 3.0, 2.0, 0.5, 1.0),
    (0.5, 3.0, 0.5, -0.3, 2.0),
]
exponents = [-3.0, -1.5, 0.0, 0.5, 1.0, 2.0, 3.5, 5.0]
for p, q, alpha, beta, l in cases:
    params = validate(p, q, alpha, beta, l)
    report = check_realization(params, exponents, tol=1e-12)
    status = "PASS" if report.passed else "FAIL"
    print(f"  p={p} q={q} alpha={alpha} beta={beta} l={l}: "
          f"max residual {report.max_residual():.2e}  [{status}]")
