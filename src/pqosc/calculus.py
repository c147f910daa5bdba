"""Difference-operator realization on monomials z**e.

A term c * z**e with a real exponent e is an (e, c) pair.  Every
operator maps a single term to a single term, so each is defined once
as a monomial map (e, c) -> (e', c'):

    a  : difference derivative, (e, c) -> (e - l/alpha, c * f_general(e))
    a+ : multiplication by z**(l/alpha), (e, c) -> (e + l/alpha, c)
    N  : Euler operator, (e, c) -> (e, c * alpha * e)

with the exponential generators acting as dilations,

    (e, c) -> (e, c * prefactor * ratio**e),

p**(-alpha*N - beta) being (ratio=p**-alpha, prefactor=p**-beta) and
q**(alpha*N + beta) being (ratio=q**alpha, prefactor=q**beta).  Under
this dilation reading all four defining relations close identically for
every alpha != 0.  Both sides of a relation send z**e to one term on
one exactly known exponent (e + l/alpha for [N, a+], e - l/alpha for
[N, a], e for the other two), so check_realization reads each relation
on z**e in closed form, as a gap between coefficients.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .params import DeformationParams, require_nonzero_alpha
from .report import CheckEntry, CheckReport
from .structure import checked_exp, f_general

# A gap below COEFF_PRUNE in magnitude counts as zero, as a pruned term would.
COEFF_PRUNE = 1e-300


# A monomial map: one term (e, c) to its image (e', c').
TermMap = Callable[[float, float], tuple[float, float]]


def lower_map(params: DeformationParams) -> TermMap:
    """a: (e, c) -> (e - l/alpha, c * f_general(e))."""
    require_nonzero_alpha(params)
    shift = params.l / params.alpha
    return lambda e, c: (e - shift, c * f_general(e, params))


def raise_map(params: DeformationParams) -> TermMap:
    """a+: (e, c) -> (e + l/alpha, c)."""
    require_nonzero_alpha(params)
    shift = params.l / params.alpha
    return lambda e, c: (e + shift, c)


def number_map(params: DeformationParams) -> TermMap:
    """N: (e, c) -> (e, c * alpha * e)."""
    alpha = params.alpha
    return lambda e, c: (e, c * alpha * e)


def dilation_map(ratio: float, prefactor: float) -> TermMap:
    """z -> ratio*z with an overall prefactor: (e, c) -> (e, c * prefactor * ratio**e)."""
    if not (ratio > 0.0):
        raise ValueError(f"ratio must be positive, got {ratio}")
    lr = math.log(ratio)
    return lambda e, c: (e, c * prefactor * checked_exp(e * lr))


def _kept(c: float) -> float:
    """A summed coefficient as a pruned term list keeps it: below COEFF_PRUNE (NaN too), 0.0."""
    return c if abs(c) >= COEFF_PRUNE else 0.0


def _power(base: float, x: float) -> float:
    """base**x; ExponentOverflowError naming |x ln(base)| where it overflows or underflows to 0."""
    try:
        value = base ** x
    except OverflowError:
        value = 0.0
    if value == 0.0:
        checked_exp(x * math.log(base))  # |x ln(base)| > 709 is past EXP_LIMIT: raises
    return value


_LABELS = (
    "[N, a+] = l a+",
    "[N, a] = -l a",
    "aa+ - q^l a+a = P",
    "aa+ - p^-l a+a = Q",
)


def check_realization(
    params: DeformationParams,
    exponents: Sequence[float],
    tol: float = 1e-12,
) -> CheckReport:
    """Verify the defining relations on each monomial z**e.

    Both sides of a relation send z**e to one term on one exactly known
    exponent, so each residual is a coefficient gap, read in closed form:
    a two-term sum, the COEFF_PRUNE cut, a second two-term sum, formed
    with the monomial maps' own expressions.  f_general is evaluated once
    at e and once at e + l/alpha; a N z**e is alpha*e times a z**e.  A
    float round trip e + l/alpha - l/alpha that misses e is rounding in
    the exponent bookkeeping, not a failure of the algebra, and does not
    enter.  Residuals are scaled by the largest coefficient participating
    in the identity, so the reported numbers are relative to the natural
    size of the terms being cancelled.  Raises ValueError when
    `exponents` is empty, where no relation would be compared, or holds a
    NaN or an infinity, and ExponentOverflowError when one of q**l,
    p**-l, p**-alpha, p**-beta, q**alpha, q**beta leaves the double range.
    """
    if len(exponents) == 0:
        raise ValueError("exponents must be nonempty")
    require_nonzero_alpha(params)
    exponents = [float(e) for e in exponents]
    if not all(map(math.isfinite, exponents)):
        raise ValueError("exponents must be finite")
    p, q, alpha, beta, l = params.p, params.q, params.alpha, params.beta, params.l
    ql, pl = _power(q, l), _power(p, -l)
    lr_p, p_pref = math.log(_power(p, -alpha)), _power(p, -beta)
    lr_q, q_pref = math.log(_power(q, alpha)), _power(q, beta)
    shift = l / alpha
    abs_l = abs(l)

    worst = [0.0] * 4
    for e in exponents:
        up, down = e + shift, e - shift
        fe = f_general(e, params)
        fu = f_general(up, params)
        # [N, a+] = l a+ at z**up: N a+ gives alpha*up, a+ N gives alpha*e
        g = _kept(alpha * up - alpha * e)
        r1 = abs(_kept(g - l)) / (1.0 + max(abs(g), abs_l))
        # [N, a] = -l a at z**down, a N z**e being alpha*e times a z**e
        g = _kept(fe * alpha * down - alpha * e * fe)
        r2 = abs(_kept(g + l * fe)) / (1.0 + max(abs(g), abs_l * abs(fe)))
        # a a+ z**e = f(up) z**e and a+ a z**e = f(e) z**e
        rhs = p_pref * checked_exp(e * lr_p)
        g = _kept(fu - ql * fe)
        r3 = abs(_kept(g - rhs)) / (1.0 + max(abs(fu), ql * abs(fe), abs(rhs)))
        rhs = q_pref * checked_exp(e * lr_q)
        g = _kept(fu - pl * fe)
        r4 = abs(_kept(g - rhs)) / (1.0 + max(abs(fu), pl * abs(fe), abs(rhs)))
        worst = [max(w, r) for w, r in zip(worst, (r1, r2, r3, r4))]

    entries = tuple(CheckEntry(label, value, tol) for label, value in zip(_LABELS, worst))
    metadata = {"params": params.as_dict(), "exponents": exponents}
    return CheckReport("difference-realization", entries, metadata)
