#!/usr/bin/env python3
"""Truncated ladder matrices and the defining relations.

Builds the matrix representation on a small basis, prints the ladder
matrices and weights, and shows that the twisted relations

    a a+ - q**l  a+ a = P,      a a+ - p**(-l) a+ a = Q

close exactly on the interior in grading mode, while the literal
reading of P, Q as functions of N's eigenvalues only closes at
alpha = 1.
"""

import numpy as np

from pqosc import check_relations, validate
from pqosc.fock import build

np.set_printoptions(precision=4, suppress=True)


def matrix(shift):
    """A weighted shift as a dense matrix: weights[k] at entry (k + offset, k)."""
    off, w = shift.offset, shift.weights
    return np.diag(w[-off:] if off < 0 else w[: len(w) - off], -off)


params = validate(2.0, 3.0, 1.0, 0.0, 1.0)
rep = build(params, dim=4)

print("weights w_k = bracket(l*k):", np.round(rep.weights, 6))
a, a_dag = matrix(rep.generator("a")), matrix(rep.generator("a+"))
print("\nlowering matrix a:")
print(a)
print("\nraising matrix a+ (transpose of a):")
print(a_dag)
print("\nnumber operator N:")
print(matrix(rep.generator("N")))

print("\nHamiltonian diagonal a+a + aa+ (interior):",
      np.round(np.diag(a_dag @ a + a @ a_dag)[:3], 6))

for alpha in (1.0, 2.0):
    params = validate(2.0, 3.0, alpha, 0.0, 1.0)
    rep = build(params, dim=16)
    maxweight = float(np.max(np.abs(rep.weights)))
    print(f"\nalpha = {alpha}:")
    for mode in ("grading", "literal"):
        report = check_relations(rep, mode, tol=1e-11 * maxweight)
        status = "PASS" if report.passed else "FAIL"
        print(f"  {mode:>8} mode: max residual {report.max_residual():.3e}  [{status}]")
print("\n(the literal failure at alpha = 2 is the expected negative case)")
