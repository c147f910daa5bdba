"""Difference-operator realization on finite exponent series.

A series is a finite sum  sum_i c_i * z**(e_i)  with real exponents.
On such series the ladder algebra is realized by

    a  : difference derivative, z**e -> f_general(e) * z**(e - l/alpha)
    a+ : multiplication by z**(l/alpha)
    N  : Euler operator, z**e -> alpha*e * z**e

with the exponential generators acting as dilations,

    z**e -> prefactor * ratio**e * z**e,

p**(-alpha*N - beta) being (ratio=p**-alpha, prefactor=p**-beta) and
q**(alpha*N + beta) being (ratio=q**alpha, prefactor=q**beta).  Under
this dilation reading all four defining relations close identically for
every alpha != 0, which check_realization verifies monomial by monomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .params import DeformationParams, require_nonzero_alpha
from .report import CheckEntry, CheckReport
from .structure import checked_exp, f_general

# Exponents are equal iff |e1 - e2| <= EXPONENT_TOL * (1 + |e1|); exponent
# arithmetic is additive shifts of exact inputs, so drift stays bounded.
EXPONENT_TOL = 1e-12
COEFF_PRUNE = 1e-300
MAX_TERMS = 10000


@dataclass(frozen=True)
class ExpSeries:
    """Finite generalized polynomial: (exponent, coefficient) pairs."""

    terms: tuple[tuple[float, float], ...]

    @staticmethod
    def from_terms(pairs: Iterable[tuple[float, float]]) -> "ExpSeries":
        """Normalize: sort, merge near-equal exponents, prune tiny terms."""
        items = sorted((float(e), float(c)) for e, c in pairs)
        merged: list[list[float]] = []
        for e, c in items:
            if merged and abs(e - merged[-1][0]) <= EXPONENT_TOL * (1.0 + abs(e)):
                merged[-1][1] += c
            else:
                merged.append([e, c])
        kept = tuple((e, c) for e, c in merged if abs(c) >= COEFF_PRUNE)
        if len(kept) > MAX_TERMS:
            raise ValueError(f"series has {len(kept)} terms, limit is {MAX_TERMS}")
        return ExpSeries(kept)

    @staticmethod
    def monomial(exponent: float, coefficient: float = 1.0) -> "ExpSeries":
        return ExpSeries.from_terms([(exponent, coefficient)])

    @staticmethod
    def zero() -> "ExpSeries":
        return ExpSeries(())

    def __add__(self, other: "ExpSeries") -> "ExpSeries":
        return ExpSeries.from_terms(self.terms + other.terms)

    def __sub__(self, other: "ExpSeries") -> "ExpSeries":
        return self + (-1.0) * other

    def __rmul__(self, scalar: float) -> "ExpSeries":
        return ExpSeries.from_terms((e, scalar * c) for e, c in self.terms)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for _, c in self.terms), default=0.0)

    def coefficient(self, exponent: float) -> float:
        for e, c in self.terms:
            if abs(e - exponent) <= EXPONENT_TOL * (1.0 + abs(exponent)):
                return c
        return 0.0

    def is_zero(self) -> bool:
        return len(self.terms) == 0


def d_op(s: ExpSeries, params: DeformationParams) -> ExpSeries:
    """Difference derivative: (e, c) -> (e - l/alpha, c * f_general(e))."""
    require_nonzero_alpha(params)
    shift = params.l / params.alpha
    return ExpSeries.from_terms(
        (e - shift, c * f_general(e, params)) for e, c in s.terms
    )


def mult_op(s: ExpSeries, params: DeformationParams) -> ExpSeries:
    """Multiplication by z**(l/alpha)."""
    require_nonzero_alpha(params)
    shift = params.l / params.alpha
    return ExpSeries.from_terms((e + shift, c) for e, c in s.terms)


def euler_op(s: ExpSeries, params: DeformationParams) -> ExpSeries:
    """Scaled Euler operator: (e, c) -> (e, c * alpha * e)."""
    return ExpSeries.from_terms((e, c * params.alpha * e) for e, c in s.terms)


def dilation_op(s: ExpSeries, ratio: float, prefactor: float) -> ExpSeries:
    """z -> ratio*z rescaling with an overall prefactor."""
    if not (ratio > 0.0):
        raise ValueError(f"ratio must be positive, got {ratio}")
    lr = math.log(ratio)
    return ExpSeries.from_terms((e, c * prefactor * checked_exp(e * lr)) for e, c in s.terms)


def check_realization(
    params: DeformationParams,
    exponents: Sequence[float],
    tol: float = 1e-12,
) -> CheckReport:
    """Verify the defining relations on each monomial z**e.

    Residuals are scaled by the largest coefficient participating in the
    identity, so the reported numbers are relative to the natural size
    of the terms being cancelled.
    """
    require_nonzero_alpha(params)
    p, q, alpha, beta, l = params.p, params.q, params.alpha, params.beta, params.l
    ql = q ** l
    pl = p ** (-l)

    worst = {
        "[N, a+] = l a+": 0.0,
        "[N, a] = -l a": 0.0,
        "aa+ - q^l a+a = P": 0.0,
        "aa+ - p^-l a+a = Q": 0.0,
    }
    for e in exponents:
        m = ExpSeries.monomial(float(e))
        up = mult_op(m, params)
        down = d_op(m, params)
        aa = d_op(up, params)
        a_a = mult_op(down, params)

        lhs1 = euler_op(up, params) - mult_op(euler_op(m, params), params)
        scale1 = 1.0 + max(lhs1.max_abs_coeff(), abs(l) * up.max_abs_coeff())
        worst["[N, a+] = l a+"] = max(
            worst["[N, a+] = l a+"], (lhs1 - l * up).max_abs_coeff() / scale1
        )

        lhs2 = euler_op(down, params) - d_op(euler_op(m, params), params)
        scale2 = 1.0 + max(lhs2.max_abs_coeff(), abs(l) * down.max_abs_coeff())
        worst["[N, a] = -l a"] = max(
            worst["[N, a] = -l a"], (lhs2 + l * down).max_abs_coeff() / scale2
        )

        rhs_p = dilation_op(m, p ** (-alpha), p ** (-beta))
        scale3 = 1.0 + max(aa.max_abs_coeff(), ql * a_a.max_abs_coeff(), rhs_p.max_abs_coeff())
        worst["aa+ - q^l a+a = P"] = max(
            worst["aa+ - q^l a+a = P"],
            (aa - ql * a_a - rhs_p).max_abs_coeff() / scale3,
        )

        rhs_q = dilation_op(m, q ** alpha, q ** beta)
        scale4 = 1.0 + max(aa.max_abs_coeff(), pl * a_a.max_abs_coeff(), rhs_q.max_abs_coeff())
        worst["aa+ - p^-l a+a = Q"] = max(
            worst["aa+ - p^-l a+a = Q"],
            (aa - pl * a_a - rhs_q).max_abs_coeff() / scale4,
        )

    entries = tuple(CheckEntry(label, value, tol) for label, value in worst.items())
    metadata = {"params": params.as_dict(), "exponents": [float(e) for e in exponents]}
    return CheckReport("difference-realization", entries, metadata)
