"""Difference-operator realization on monomials z**e.

On real powers of z every operator sends one term c * z**e to one term:

    a  : difference derivative, z**e -> f(e) * z**(e - l/alpha)
    a+ : multiplication by z**(l/alpha), z**e -> z**(e + l/alpha)
    N  : scaled Euler operator, z**e -> alpha*e * z**e

where f is the structure function f_general.  The exponential
generators act as dilations z -> ratio*z with a prefactor,

    z**e -> prefactor * ratio**e * z**e,

p**(-alpha*N - beta) being (ratio=p**-alpha, prefactor=p**-beta) and
q**(alpha*N + beta) being (ratio=q**alpha, prefactor=q**beta).  Under
this dilation reading all four defining relations close identically for
every alpha != 0.  Both sides of a relation send z**e to one multiple of
one known power (z**(e + l/alpha) for [N, a+], z**(e - l/alpha) for
[N, a], z**e for the other two), so check_realization reads each
relation on z**e in closed form, as a gap between coefficients.
"""

from __future__ import annotations

import math
from typing import Sequence

from .params import DeformationParams, require_nonzero_alpha
from .report import CheckEntry, CheckReport, peak
from .structure import checked_exp, f_general


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

    With u = e + l/alpha, the operator rules give on z**e

        [N, a+] = l a+         (alpha*u - alpha*e) z**u = l z**u
        [N, a]  = -l a         (alpha*(e - l/alpha) - alpha*e) f(e) z**(e - l/alpha)
                                   = -l f(e) z**(e - l/alpha)
        aa+ - q^l a+a = P      f(u) - q**l f(e) = p**-beta * (p**-alpha)**e
        aa+ - p^-l a+a = Q     f(u) - p**-l f(e) = q**beta * (q**alpha)**e

    and each residual is the gap between the two sides' coefficients,
    scaled by 1 plus the largest coefficient in the identity, so that it
    is relative to the natural size of the terms being cancelled.  f is
    evaluated once at e and once at u.  Both sides of a relation land on
    the same power of z by construction, so a float round trip
    e + l/alpha - l/alpha that misses e does not enter.  Each relation's
    residual is the peak over the exponents, NaN where some exponent's
    is, and a NaN fails.  Raises ValueError when `exponents` is empty,
    where no relation would be compared, or holds a NaN or an infinity,
    and ExponentOverflowError when one of q**l, p**-l, p**-alpha,
    p**-beta, q**alpha, q**beta leaves the double range.
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

    rows = []
    for e in exponents:
        up, down = e + shift, e - shift
        fe = f_general(e, params)
        fu = f_general(up, params)
        # [N, a+] = l a+ at z**up: N a+ gives alpha*up, a+ N gives alpha*e
        g = alpha * up - alpha * e
        r1 = abs(g - l) / (1.0 + max(abs(g), abs_l))
        # [N, a] = -l a at z**down, a N z**e being alpha*e times a z**e
        g = fe * alpha * down - alpha * e * fe
        r2 = abs(g + l * fe) / (1.0 + max(abs(g), abs_l * abs(fe)))
        # a a+ z**e = f(up) z**e and a+ a z**e = f(e) z**e
        rhs = p_pref * checked_exp(e * lr_p)
        r3 = abs(fu - ql * fe - rhs) / (1.0 + max(abs(fu), ql * abs(fe), abs(rhs)))
        rhs = q_pref * checked_exp(e * lr_q)
        r4 = abs(fu - pl * fe - rhs) / (1.0 + max(abs(fu), pl * abs(fe), abs(rhs)))
        rows.append((r1, r2, r3, r4))

    entries = tuple(CheckEntry(label, peak(col), tol) for label, col in zip(_LABELS, zip(*rows)))
    metadata = {"params": params.as_dict(), "exponents": exponents}
    return CheckReport("difference-realization", entries, metadata)
