"""Structure functions of the deformed oscillator schemes.

The central object is the two-base bracket

    bracket(x) = (p**(-x) - q**x) / (p**(-l) - q**l),

an analytic function of a real argument x.  bracket evaluates one
point and raises ExponentOverflowError where an exponent, or the value
itself, leaves the double range.  brackets evaluates a whole lattice of
points, bit for bit as bracket would, with the exponent guard checked
once for the lattice; the ladder weights, the spectrum levels and the
CLI's numbers table come from it.  affine_lattice checks the guard at
a lattice's end points before it forms the lattice.  The general
five-parameter structure function is f(n) = bracket(alpha*n + beta).
The classical schemes that are this function at fixed parameters
(Arik-Coon, the symmetric q-bracket and its generalized form, the plain
two-base bracket and its generalized form) are catalogued as maps to
their DeformationParams.  Only the undeformed oscillator and the
generalized Arik-Coon scheme keep a formula of their own.  An
independent finite-sum oracle for the test suite closes the module.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .params import DeformationParams, validate

# |exponent| * |ln(base)| beyond which exp() would overflow a double.
EXP_LIMIT = 700.0


class ExponentOverflowError(ArithmeticError):
    """An exponential magnitude left the double-precision range."""


def checked_exp(t: float) -> float:
    """exp(t); raises ExponentOverflowError when |t| exceeds EXP_LIMIT."""
    if abs(t) > EXP_LIMIT:
        raise ExponentOverflowError(f"exponent magnitude {abs(t):.3g} exceeds {EXP_LIMIT:g}")
    return math.exp(t)


def bracket(x: float, params: DeformationParams) -> float:
    """(p**(-x) - q**x) / (p**(-l) - q**l) for real x.

    Evaluated without cancellation as

        exp((x - l)(ln q - ln p)/2) * sinh(x L/2) / sinh(l L/2),  L = ln(p q),

    which stays accurate up to the singular surface (p q)**l = 1.  Raises
    ExponentOverflowError when one of p**(-x), q**x, p**(-l), q**l has an
    exponent beyond EXP_LIMIT.  Where the exponential factor or a partial
    product leaves the double range although the bracket need not, the
    same formula is evaluated in logarithms; where the bracket itself
    leaves it, ExponentOverflowError is raised too.  The parts that do not
    depend on x come from params.bracket_constants, computed once per
    instance.
    """
    ln_q_over_p, half_ln_pq, den, al, worst_ln = params.bracket_constants
    ax = abs(x)
    worst = (ax if ax > al else al) * worst_ln
    if worst > EXP_LIMIT:
        raise ExponentOverflowError(f"exponent magnitude {worst:.3g} exceeds {EXP_LIMIT:g}")
    h = 0.5 * (x - params.l) * ln_q_over_p
    if -EXP_LIMIT <= h <= EXP_LIMIT:
        value = math.exp(h) * math.sinh(x * half_ln_pq) / den
        if value - value == 0.0:  # finite: no partial product overflowed
            return value
    # The guard keeps both sinh arguments within EXP_LIMIT.
    num = math.sinh(x * half_ln_pq)
    if num == 0.0:
        return 0.0
    t = h + math.log(abs(num)) - math.log(abs(den))
    try:
        magnitude = math.exp(t)
    except OverflowError:
        raise ExponentOverflowError(
            f"bracket({x:.6g}) = exp({t:.6g}) exceeds the double range"
        ) from None
    return math.copysign(magnitude, num) * math.copysign(1.0, den)


def brackets(xs: Sequence[float], params: DeformationParams) -> list:
    """[bracket(x, params) for x in xs], bit for bit, evaluated as one lattice.

    The exponent guard is checked once: for the largest |x|, and for the
    range of the exponent h, which is monotone in x, at the smallest and
    the largest x.  Each value is then formed with bracket's own
    expression; an entry that comes out non-finite goes through bracket.
    Where the guard fails anywhere, every entry goes through bracket in
    order, so the first failing x raises what the loop would raise.
    """
    if not xs:
        return []
    ln_q_over_p, half_ln_pq, den, al, worst_ln = params.bracket_constants
    l = params.l
    lo, hi = min(xs), max(xs)
    ax = -lo if -lo > hi else hi
    worst = (ax if ax > al else al) * worst_ln
    h_lo = 0.5 * (lo - l) * ln_q_over_p
    h_hi = 0.5 * (hi - l) * ln_q_over_p
    # Written so that a NaN bound takes the scalar loop.
    if not (
        worst <= EXP_LIMIT
        and -EXP_LIMIT <= h_lo <= EXP_LIMIT
        and -EXP_LIMIT <= h_hi <= EXP_LIMIT
    ):
        return [bracket(x, params) for x in xs]
    exp, sinh = math.exp, math.sinh
    values = [exp(0.5 * (x - l) * ln_q_over_p) * sinh(x * half_ln_pq) / den for x in xs]
    if not math.isfinite(sum(values)):  # some entry is not finite, or the sum overflowed
        values = [v if v - v == 0.0 else bracket(x, params) for x, v in zip(xs, values)]
    return values


def affine_lattice(start: float, step: float, count: int, params: DeformationParams) -> list:
    """[start + step*k for k < count], formed once bracket's guard passes at its end points.

    bracket's exponent guard grows with |x|, so the two end points decide
    it.  Where one fails, the levels are evaluated in order, one at a
    time, and the first failing level raises what brackets would raise on
    the lattice, which is never formed.
    """
    if count > 0:
        try:
            bracket(start, params)
            bracket(start + step * (count - 1), params)
        except ExponentOverflowError:
            for k in range(count):
                bracket(start + step * k, params)
            raise
    return [start + step * k for k in range(count)]


def f_general(n: float, params: DeformationParams) -> float:
    """Five-parameter structure function, evaluated at real n."""
    return bracket(params.alpha * n + params.beta, params)


def pq_sum_oracle(n: int, p: float, q: float) -> float:
    """Explicit sum  sum_{k=0}^{n-1} p**-(n-1-k) * q**k.

    Telescoping against p**-1 - q shows this equals the two-base bracket
    at alpha=1, beta=0, l=1; it never divides by p**-1 - q, which makes
    it an independent oracle for f_general (valid at p*q = 1 too).
    Returns 0 for n = 0.
    """
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    n = int(n)
    return math.fsum(p ** (-(n - 1 - k)) * q ** k for k in range(n))


# ---------------------------------------------------------------------------
# Scheme catalog: evaluate the parameter maps with f_general.  Each raises
# what validate raises: NonPositiveBaseError, or DegenerateDenominatorError
# where (p*q)**l = 1 within its guard.
# ---------------------------------------------------------------------------


def standard_qm(n: float) -> float:
    """Undeformed oscillator: f(n) = n/2."""
    return 0.5 * n


def arik_coon(q: float) -> DeformationParams:
    """Arik-Coon, f(n) = (1 - q**n) / (1 - q): p = 1."""
    return validate(1.0, q, 1.0, 0.0, 1.0)


def arik_coon_generalized(n: float, q: float, alpha: float, beta: float) -> float:
    """Generalized Arik-Coon, f(n) = q**(alpha*n + beta) * (1 - q**n) / (1 - q)."""
    params = arik_coon(q)
    return checked_exp((alpha * n + beta) * math.log(params.q)) * f_general(n, params)


def biedenharn_macfarlane(q: float) -> DeformationParams:
    """Symmetric bracket, f(n) = (q**-n - q**n) / (q**-1 - q): p = q."""
    return validate(q, q, 1.0, 0.0, 1.0)


def bm_symmetric_generalized(q: float, alpha: float, beta: float) -> DeformationParams:
    """Symmetric bracket at x = alpha*n + beta."""
    return validate(q, q, alpha, beta, 1.0)


def two_parameter(p: float, q: float, l: float) -> DeformationParams:
    """Two-base bracket at x = n, f(n) = (p**-n - q**n) / (p**-l - q**l)."""
    return validate(p, q, 1.0, 0.0, l)


def two_parameter_symmetric_generalized(
    p: float, q: float, alpha: float, beta: float, l: float
) -> DeformationParams:
    """The general five-parameter scheme."""
    return validate(p, q, alpha, beta, l)
