"""Deformation parameter tuple and its validity domain.

A deformation is described by five reals (p, q, alpha, beta, l): two
positive bases p, q; an exponent slope alpha and offset beta; and a
ladder grading step l.  Everything downstream divides by
p**(-l) - q**l, so the single hard restriction beyond positivity of the
bases is (p*q)**l != 1, enforced here through the equivalent condition
|l * (ln p + ln q)| > EPS_DEGENERATE on the L = ln p + ln q that the
bracket divides by; p*q itself may underflow or overflow.
ParameterError is also the base of fock.FockError and cli.ConfigError,
so it names every refused input: the CLI exits 2 on it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

# Guard width around the singular surface (p*q)**l = 1.
EPS_DEGENERATE = 1e-12


class ParameterError(ValueError):
    """A candidate parameter tuple violates the validity domain."""


class NonPositiveBaseError(ParameterError):
    """p <= 0 or q <= 0."""


class DegenerateDenominatorError(ParameterError):
    """(p*q)**l = 1 within the guard, so p**(-l) - q**l vanishes."""


class ZeroAlphaError(ParameterError):
    """alpha = 0; fatal only where the exponent shift l/alpha is needed."""


# A namedtuple base, not a dataclass, so that a cold process need not import
# dataclasses (and with it inspect, ast and dis).  No __slots__, so that
# cached_property has an instance __dict__ to fill.
class DeformationParams(namedtuple("DeformationParams", "p q alpha beta l")):
    """Immutable (p, q, alpha, beta, l) tuple.

    Instances produced by :func:`validate` satisfy p > 0, q > 0 and
    |l * (ln p + ln q)| > EPS_DEGENERATE.  alpha = 0 is representable (the
    structure function is then constant in n) but is rejected by the
    operators that divide by alpha.  `params._replace(p=...)` makes a
    changed copy, with bracket_constants of its own.

    The instance __dict__ may hold caches computed from the five fields
    alone, such as bracket_constants below; ==, hash, repr and as_dict
    never read it.
    """

    @cached_property
    def bracket_constants(self) -> tuple[float, float, float, float, float]:
        """The x-independent parts of structure.bracket, computed once.

        (ln q - ln p, L/2, sinh(l L/2), |l|, max(|ln p|, |ln q|)) with
        L = ln p + ln q.  cached_property stores the tuple in the instance
        __dict__, outside the tuple fields, so ==, hash, repr and as_dict
        see only (p, q, alpha, beta, l).
        """
        lp = math.log(self.p)
        lq = math.log(self.q)
        half_ln_pq = 0.5 * (lp + lq)
        alp, alq = abs(lp), abs(lq)
        try:
            den = math.sinh(self.l * half_ln_pq)
        except OverflowError:
            # Never read: |l L/2| > 710 exceeds bracket's exponent guard for every x.
            den = math.copysign(math.inf, self.l * half_ln_pq)
        return (lq - lp, half_ln_pq, den, abs(self.l), alp if alp > alq else alq)

    def as_dict(self) -> dict:
        return self._asdict()


def validate(p: float, q: float, alpha: float, beta: float, l: float) -> DeformationParams:
    """Check a candidate tuple and return it as DeformationParams.

    Raises NonPositiveBaseError or DegenerateDenominatorError.  alpha = 0
    is deliberately not rejected here; call :func:`require_nonzero_alpha`
    at the points of use that need l/alpha.
    """
    p, q, alpha, beta, l = float(p), float(q), float(alpha), float(beta), float(l)
    if not (p > 0.0) or not (q > 0.0):
        raise NonPositiveBaseError(f"bases must be positive, got p={p}, q={q}")
    if not (math.isfinite(p) and math.isfinite(q)):
        raise NonPositiveBaseError(f"bases must be finite, got p={p}, q={q}")
    for name, value in (("alpha", alpha), ("beta", beta), ("l", l)):
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
    if abs(l * (math.log(p) + math.log(q))) <= EPS_DEGENERATE:
        raise DegenerateDenominatorError(
            f"(p*q)**l = 1 within {EPS_DEGENERATE:g}: p={p}, q={q}, l={l}"
        )
    return DeformationParams(p, q, alpha, beta, l)


def dual(params: DeformationParams) -> DeformationParams:
    """Parameter involution p -> 1/q, q -> 1/p (alpha, beta, l unchanged).

    The bracket, the structure function and the oscillator spectrum are
    all invariant under this map; dual(dual(x)) == x up to reciprocal
    rounding.
    """
    return DeformationParams(1.0 / params.q, 1.0 / params.p, params.alpha, params.beta, params.l)


def require_nonzero_alpha(params: DeformationParams) -> None:
    if params.alpha == 0.0:
        raise ZeroAlphaError("alpha = 0: the exponent shift l/alpha does not exist")
