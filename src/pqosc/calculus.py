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
every alpha != 0, which check_realization verifies by applying the maps
to each monomial z**e.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from .params import DeformationParams, require_nonzero_alpha
from .report import CheckEntry, CheckReport
from .structure import checked_exp, f_general

# Exponents are equal iff |e1 - e2| <= EXPONENT_TOL * (1 + |e1|); exponent
# arithmetic is additive shifts of exact inputs, so drift stays bounded.
EXPONENT_TOL = 1e-12
COEFF_PRUNE = 1e-300


def _normalize(pairs: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Float (exponent, coefficient) pairs sorted, near-equal exponents merged, tiny terms pruned.

    The one normal form of a term list: check_realization compares the
    sides of each relation in it.
    """
    kept = []
    e0 = c0 = None  # the group being merged: its first exponent, its summed coefficient
    for e, c in sorted(pairs):
        if c0 is not None:
            if abs(e - e0) <= EXPONENT_TOL * (1.0 + abs(e)):
                c0 += c
                continue
            if abs(c0) >= COEFF_PRUNE:
                kept.append((e0, c0))
        e0, c0 = e, c
    if c0 is not None and abs(c0) >= COEFF_PRUNE:
        kept.append((e0, c0))
    return tuple(kept)


def _max_abs_coeff(terms: Sequence[tuple[float, float]]) -> float:
    return max([abs(c) for _, c in terms], default=0.0)


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


def _term_list_gaps(e: float, l: float, ql: float, pl: float, maps: tuple) -> tuple:
    """The four relation residuals at z**e, each side a normalized term list.

    The general path of check_realization: where rounding moves an image
    off e, the normalizer merges it with the terms at near-equal exponents.
    """
    a, a_dag, n_op, p_op, q_op = maps

    def minus(lhs: tuple, e: float, c: float) -> float:
        """Largest |coefficient| of lhs - c z**e."""
        return _max_abs_coeff(_normalize(lhs + ((e, -c),)))

    m = (e, 1.0)
    up, down, n_m = a_dag(*m), a(*m), n_op(*m)
    aa, a_a = a(*up), a_dag(*down)

    n_up, up_n = n_op(*up), a_dag(*n_m)
    lhs1 = _normalize((n_up, (up_n[0], -up_n[1])))
    scale1 = 1.0 + max(_max_abs_coeff(lhs1), abs(l) * abs(up[1]))

    # a(*n_m) by linearity: down's coefficient is f_general(e) itself
    n_down, down_n = n_op(*down), (down[0], n_m[1] * down[1])
    lhs2 = _normalize((n_down, (down_n[0], -down_n[1])))
    scale2 = 1.0 + max(_max_abs_coeff(lhs2), abs(l) * abs(down[1]))

    rhs_p = p_op(*m)
    lhs3 = _normalize((aa, (a_a[0], -(ql * a_a[1]))))
    scale3 = 1.0 + max(abs(aa[1]), ql * abs(a_a[1]), abs(rhs_p[1]))

    rhs_q = q_op(*m)
    lhs4 = _normalize((aa, (a_a[0], -(pl * a_a[1]))))
    scale4 = 1.0 + max(abs(aa[1]), pl * abs(a_a[1]), abs(rhs_q[1]))
    return (
        minus(lhs1, up[0], l * up[1]) / scale1,
        minus(lhs2, down[0], -(l * down[1])) / scale2,
        minus(lhs3, *rhs_p) / scale3,
        minus(lhs4, *rhs_q) / scale4,
    )


def _kept(c: float) -> float:
    """A merged coefficient as the normalizer keeps it: pruned (NaN too) to 0.0."""
    return c if abs(c) >= COEFF_PRUNE else 0.0


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

    The term maps act on z**e directly, and f_general is evaluated once
    at e and once at e + l/alpha: a N z**e is alpha*e times a z**e.
    Where the shifts by l/alpha return to e exactly, every side of every
    relation is one term at one exponent, and each residual is the
    coefficient gap that normalizing the sides would leave: a two-term
    sum, the COEFF_PRUNE cut, a second two-term sum.  The gaps are formed
    with the monomial maps' own expressions, so they are bit for bit what
    the term lists give.  Where rounding moves an image off e, that
    exponent goes through the term lists, each side normalized by
    _normalize, so near-equal exponents merge and images on different
    exponents stay apart.  Residuals are scaled by the largest
    coefficient participating in the identity, so the reported numbers
    are relative to the natural size of the terms being cancelled.
    Raises ValueError when `exponents` is empty, where no relation would
    be compared, or holds a NaN or an infinity.
    """
    if len(exponents) == 0:
        raise ValueError("exponents must be nonempty")
    require_nonzero_alpha(params)
    exponents = [float(e) for e in exponents]
    if not all(map(math.isfinite, exponents)):
        raise ValueError("exponents must be finite")
    p, q, alpha, beta, l = params.p, params.q, params.alpha, params.beta, params.l
    ql = q ** l
    pl = p ** (-l)
    shift = l / alpha
    a, a_dag, n_op = lower_map(params), raise_map(params), number_map(params)
    p_ratio, p_pref = p ** (-alpha), p ** (-beta)
    p_op = dilation_map(p_ratio, p_pref)
    q_ratio, q_pref = q ** alpha, q ** beta
    q_op = dilation_map(q_ratio, q_pref)
    lr_p, lr_q = math.log(p_ratio), math.log(q_ratio)
    abs_l = abs(l)

    worst = [0.0] * 4
    for e in exponents:
        up, down = e + shift, e - shift
        # Exact round trips put every image at e.
        if up - shift == e and down + shift == e:
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
            gaps = (r1, r2, r3, r4)
        else:
            gaps = _term_list_gaps(e, l, ql, pl, (a, a_dag, n_op, p_op, q_op))
        worst = [max(w, r) for w, r in zip(worst, gaps)]

    entries = tuple(CheckEntry(label, value, tol) for label, value in zip(_LABELS, worst))
    metadata = {"params": params.as_dict(), "exponents": exponents}
    return CheckReport("difference-realization", entries, metadata)
