"""Structure functions of the deformed oscillator schemes, and the exponent guard.

The guard is EXP_LIMIT: checked_exp applies it to one exponent,
checked_exps to an affine exponent lattice at its ends, bracket to its
four exponents; all raise ExponentOverflowError.  The two-base bracket is

    bracket(x) = (p**(-x) - q**x) / (p**(-l) - q**l),

an analytic function of a real argument x.  bracket evaluates one point,
raising also where its value leaves the double range.  brackets
evaluates a whole affine lattice start + step*k, bit for bit as bracket
would, with the guard decided at its end points before it is formed;
with a shift, it evaluates x_k and x_k + shift in turn.  The general
five-parameter structure function is f(n) = bracket(alpha*n + beta).
The classical schemes are points of this family, each reached by
passing its parameters to validate: Arik-Coon, (1 - q**n) / (1 - q), is
p = 1 with alpha = 1, beta = 0, l = 1; the symmetric q-bracket,
(q**-n - q**n) / (q**-1 - q), is p = q at the same alpha, beta and l,
and its generalized form frees alpha and beta; the plain two-base
bracket is alpha = 1, beta = 0 at any l.  An independent finite-sum
oracle closes the module.
"""

from __future__ import annotations

import math

from .params import DeformationParams

# |exponent| * |ln(base)| beyond which exp() would overflow a double.
EXP_LIMIT = 700.0


class ExponentOverflowError(ArithmeticError):
    """An exponential magnitude left the double-precision range."""


def _past_limit(magnitude: float) -> ExponentOverflowError:
    """The guard's error; repr keeps a magnitude just past EXP_LIMIT above it."""
    return ExponentOverflowError(f"exponent magnitude {magnitude!r} exceeds {EXP_LIMIT:g}")


def checked_exp(t: float) -> float:
    """exp(t); raises ExponentOverflowError when |t| exceeds EXP_LIMIT."""
    if abs(t) > EXP_LIMIT:
        raise _past_limit(abs(t))
    return math.exp(t)


def checked_exps(t: list) -> tuple:
    """checked_exp of each entry of an affine exponent lattice, guarded at its ends.

    Rounding is monotone, so the largest |t| sits at one end: guarding that
    end raises what guarding every entry would, magnitude and message included.
    """
    if t:
        checked_exp(max(abs(t[0]), abs(t[-1])))
    return tuple(map(math.exp, t))


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
        raise _past_limit(worst)
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


def brackets(
    start: float, step: float, count: int, params: DeformationParams, shift: float | None = None
) -> tuple[list, list]:
    """The lattice x_k = start + step*k, k < count, and its brackets, bit for bit bracket's.

    Returns (xs, values).  Without shift, values[k] = bracket(xs[k]); with
    it, values holds bracket(x_k) then bracket(x_k + shift) for each k.
    bracket's exponent guard grows with |x| and its exponent h is
    monotone in x, so the end points, two or four, decide both for the
    whole lattice before any of it is formed.  Each value is then formed
    with bracket's own expression; an entry that comes out non-finite
    goes through bracket.  Where the guard fails at an end, the points
    are formed and go through bracket one at a time in that order, so
    the first failing point raises what the per-point loop would raise,
    and no point past it is formed.
    """
    ln_q_over_p, half_ln_pq, den, al, worst_ln = params.bracket_constants
    l = params.l
    last = start + step * (count - 1)
    ends = (start, last) if shift is None else (start, start + shift, last, last + shift)
    # Written so that a NaN end point fails.
    fits = al * worst_ln <= EXP_LIMIT and all(
        abs(x) * worst_ln <= EXP_LIMIT and -EXP_LIMIT <= 0.5 * (x - l) * ln_q_over_p <= EXP_LIMIT
        for x in ends
    )
    if not fits:
        xs, values = [], []
        for k in range(count):
            x = start + step * k
            xs.append(x)
            values.append(bracket(x, params))
            if shift is not None:
                values.append(bracket(x + shift, params))
        return xs, values
    xs = [start + step * k for k in range(count)]
    lattice = xs
    if shift is not None:
        lattice = xs * 2  # x_k at even, x_k + shift at odd indices; 2-3x a nested comprehension's speed
        lattice[0::2] = xs
        lattice[1::2] = [x + shift for x in xs]
    exp, sinh = math.exp, math.sinh
    values = [exp(0.5 * (x - l) * ln_q_over_p) * sinh(x * half_ln_pq) / den for x in lattice]
    if not math.isfinite(sum(values)):  # some entry is not finite, or the sum overflowed
        values = [v if v - v == 0.0 else bracket(x, params) for x, v in zip(lattice, values)]
    return xs, values


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
