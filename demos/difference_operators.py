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

from pqosc import check_realization, f_general, validate


def show(label, e, c):
    print(f"  {label}: {c:.6g} z^{e:g}" if c else f"  {label}: 0")


params = validate(2.0, 3.0, 1.0, 0.0, 1.0)
shift = params.l / params.alpha  # a lowers, a+ raises the exponent by l/alpha
print("parameters p=2, q=3, alpha=1, beta=0, l=1")
e = 2.0
show("z^2", e, 1.0)
show("a z^2", e - shift, f_general(e, params))
show("a+ z^2", e + shift, 1.0)
show("a a+ z^2", e, f_general(e + shift, params))
show("q^(alpha N + beta) z^2", e, params.q ** (params.alpha * e + params.beta))
show("a 1", -shift, f_general(0.0, params))

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
