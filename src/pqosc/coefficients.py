"""Coproduct coefficient system: the scalar solve and its constraints.

The algebra admits a coproduct / counit / antipode ansatz

    D(a+) = c1 a+ (x) p^(-a1 N) + c2 q^(a2 N) (x) a+
    D(a)  = c3 a  (x) p^(-a3 N) + c4 q^(a4 N) (x) a
    D(N)  = c5 N (x) 1 + c6 1 (x) N + gamma 1 (x) 1
    eps(a+) = c7,  eps(a) = c8,  eps(N) = c9
    S(a+) = -c10 a+,  S(a) = -c11 a,  S on N affine via c12, c13

whose constants are pinned by the structure axioms.  With the symmetric
split a1 = a2 = a3 = a4 = alpha/2 the solution is

    A     = (q/p)**(alpha*l/2)
    gamma = ln(R) / (alpha * ln(p*q)),
    R     = (q**b1 - A*q**b2) / (p**(-b1) - A*p**(-b2))
    c1 = p**(-a1*gamma), c2 = q**(a2*gamma), likewise c3, c4
    c5 = c6 = 1, c7 = c8 = 0, c9 = -gamma,
    c10 = c11 = c12 = -1, c13 = 0.

gamma exists only when R > 0; R <= 0 raises GammaUndefinedError (for
instance p = q with b1 != b2 gives R = -q**(b1+b2) < 0, and b1 - b2 = l
gives R < 0 whenever A falls between p**(-l) and q**l, which at
alpha = 1 it always does, being their geometric mean).  The denominator
of R is degenerate (ADegenerateError) where it cancels to within 1e-14
of the larger of its two terms or falls below the smallest normal
double, where it no longer holds 53 bits; a numerator that small raises
GammaUndefinedError.  Where R itself leaves the normal range (below the
smallest normal double, or inf) while its numerator and denominator have
one sign, ln(R) is read as ln|num| - ln|den|.

Everything here is scalar, on math; the tensor-product checks of the
same constants are in hopf.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass

from .params import (  # the three errors are re-exported: they live in params
    ADegenerateError,
    Beta1Beta2MismatchError,
    DeformationParams,
    GammaUndefinedError,
    ParameterError,
    require_nonzero_alpha,
    validate,
)
from .report import CheckEntry, CheckReport
from .structure import EXP_LIMIT, ExponentOverflowError, checked_exp


class HopfParams(namedtuple("HopfParams", "p q alpha l beta1 beta2")):
    """Algebra data for the coefficient solve: bases, slope, step, offsets."""

    __slots__ = ()

    def base_params(self) -> DeformationParams:
        """Offset-free deformation tuple used to build representations."""
        return DeformationParams(self.p, self.q, self.alpha, 0.0, self.l)

    def as_dict(self) -> dict:
        return self._asdict()


def validate_hopf(p, q, alpha, l, beta1, beta2) -> HopfParams:
    validate(p, q, alpha, 0.0, l)
    beta1, beta2 = float(beta1), float(beta2)
    if not (math.isfinite(beta1) and math.isfinite(beta2)):
        raise ParameterError(f"offsets must be finite, got beta1={beta1}, beta2={beta2}")
    return HopfParams(float(p), float(q), float(alpha), float(l), beta1, beta2)


@dataclass(frozen=True)
class HopfCoefficients:
    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    A: float
    gamma: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    c7: float
    c8: float
    c9: float
    c10: float
    c11: float
    c12: float
    c13: float

    def as_dict(self) -> dict:
        # the declared fields in order, and no instance attribute;
        # dataclasses.asdict would deep-copy each one
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


def _exp(t: float) -> float:
    """math.exp(t); where that overflows, ExponentOverflowError naming |t|."""
    try:
        return math.exp(t)
    except OverflowError:
        return checked_exp(t)  # t > 709 is past EXP_LIMIT: raises


def _scaled_exp(scale: float, t: float) -> float:
    """scale * math.exp(t) for scale > 0; where that overflows,
    ExponentOverflowError naming ln(scale) + t."""
    value = scale * _exp(t)
    if value == math.inf:
        checked_exp(math.log(scale) + t)  # past EXP_LIMIT: raises
    return value


def solve_coefficients(hp: HopfParams) -> HopfCoefficients:
    """Solve the constraint system for the symmetric split a_i = alpha/2."""
    params = hp.base_params()
    require_nonzero_alpha(params)
    lp = math.log(hp.p)
    lq = math.log(hp.q)

    A = _exp(0.5 * hp.alpha * hp.l * (lq - lp))
    d1, d2 = _exp(-hp.beta1 * lp), _scaled_exp(A, -hp.beta2 * lp)
    den = d1 - d2
    num = _exp(hp.beta1 * lq) - _scaled_exp(A, hp.beta2 * lq)
    tiny = sys.float_info.min  # a smaller double is subnormal: it keeps fewer than 53 bits
    if abs(den) <= max(1e-14 * max(d1, d2), tiny):  # judged against its own two terms
        raise ADegenerateError(f"p**(-beta1) - A*p**(-beta2) = {den:.3g} vanishes")
    if abs(num) < tiny:
        raise GammaUndefinedError(
            f"q**beta1 - A*q**beta2 = {num:.3g} is below the normal double range, "
            f"so ln(R) is not resolved"
        )
    R = num / den
    if (R < tiny or R == math.inf) and (num > 0.0 < den or num < 0.0 > den):
        # num and den are normal: the ratio leaves the normal range, its logarithm does not
        log_r = math.log(abs(num)) - math.log(abs(den))
    elif R <= 0.0:
        raise GammaUndefinedError(
            f"(p*q)**(alpha*gamma) = {R:.6g} <= 0 has no real solution "
            f"(p={hp.p}, q={hp.q}, alpha={hp.alpha}, l={hp.l}, "
            f"beta1={hp.beta1}, beta2={hp.beta2})"
        )
    else:
        log_r = math.log(R)
    gamma = log_r / (hp.alpha * (lp + lq))

    half = 0.5 * hp.alpha
    c_p = _exp(-half * gamma * lp)  # c1 = c3
    c_q = _exp(half * gamma * lq)  # c2 = c4
    return HopfCoefficients(
        alpha1=half,
        alpha2=half,
        alpha3=half,
        alpha4=half,
        A=A,
        gamma=gamma,
        c1=c_p,
        c2=c_q,
        c3=c_p,
        c4=c_q,
        c5=1.0,
        c6=1.0,
        c7=0.0,
        c8=0.0,
        c9=-gamma,
        c10=-1.0,
        c11=-1.0,
        c12=-1.0,
        c13=0.0,
    )


def _power(base: float, t: float, where: str) -> float:
    """base**t for base >= 0; where that leaves the double range,
    ExponentOverflowError naming the exponent of e (inf at base 0)."""
    try:
        return base**t
    except (OverflowError, ZeroDivisionError):  # 0.0**t, t < 0: the base underflowed
        exponent = t * math.log(base) if base else math.inf
        raise ExponentOverflowError(
            f"{where}: exponent {exponent!r} exceeds {EXP_LIMIT:g}"
        ) from None


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def check_constraints(hc: HopfCoefficients, hp: HopfParams, tol: float = 1e-12) -> CheckReport:
    """Residuals of every scalar equality the coefficient system satisfies."""
    p, q, alpha, l = hp.p, hp.q, hp.alpha, hp.l
    a1, a2, a3, a4, A, g = hc.alpha1, hc.alpha2, hc.alpha3, hc.alpha4, hc.A, hc.gamma
    # Every power goes through _power, whose error names the power and its
    # row.  The *_ag exponents are twice those of c1..c4, so these can
    # overflow where the solve did not.
    p_ag = _power(p, -alpha * g, "p**(-alpha*gamma) in c1 c3 = p^-alpha gamma")
    q_ag = _power(q, alpha * g, "q**(alpha*gamma) in c2 c4 = q^alpha gamma")
    cross = "gamma equation cross-multiplied"
    pq_ag = _power(p * q, alpha * g, f"(p*q)**(alpha*gamma) in {cross}")
    pairs = [
        ("c1 = p^-a1*gamma", hc.c1, _power(p, -a1 * g, "p**(-a1*gamma) in c1 = p^-a1*gamma")),
        ("c2 = q^a2*gamma", hc.c2, _power(q, a2 * g, "q**(a2*gamma) in c2 = q^a2*gamma")),
        ("c3 = p^-a3*gamma", hc.c3, _power(p, -a3 * g, "p**(-a3*gamma) in c3 = p^-a3*gamma")),
        ("c4 = q^a4*gamma", hc.c4, _power(q, a4 * g, "q**(a4*gamma) in c4 = q^a4*gamma")),
        ("c5 = 1", hc.c5, 1.0),
        ("c6 = 1", hc.c6, 1.0),
        ("c7 = 0", hc.c7, 0.0),
        ("c8 = 0", hc.c8, 0.0),
        ("c9 = -gamma", hc.c9, -g),
        ("c10 = -1", hc.c10, -1.0),
        ("c11 = -1", hc.c11, -1.0),
        ("c12 = -1", hc.c12, -1.0),
        ("c13 = 0", hc.c13, 0.0),
        ("alpha1 = alpha3", a1, a3),
        ("alpha2 = alpha4", a2, a4),
        ("A = p^-a3l q^a2l", A, _power(p, -a3 * l, "p**(-a3*l) in A = p^-a3l q^a2l")
         * _power(q, a2 * l, "q**(a2*l) in A = p^-a3l q^a2l")),
        ("A = p^-a1l q^a4l", A, _power(p, -a1 * l, "p**(-a1*l) in A = p^-a1l q^a4l")
         * _power(q, a4 * l, "q**(a4*l) in A = p^-a1l q^a4l")),
        ("A = (q/p)^(alpha l/2)", A,
         _power(q / p, 0.5 * alpha * l, "(q/p)**(alpha*l/2) in A = (q/p)^(alpha l/2)")),
        ("c1 c3 = p^-alpha gamma", hc.c1 * hc.c3, p_ag),
        ("c2 c4 = q^alpha gamma", hc.c2 * hc.c4, q_ag),
        (cross,
         pq_ag * (_power(p, -hp.beta1, f"p**(-beta1) in {cross}")
                  - A * _power(p, -hp.beta2, f"p**(-beta2) in {cross}")),
         _power(q, hp.beta1, f"q**beta1 in {cross}")
         - A * _power(q, hp.beta2, f"q**beta2 in {cross}")),
    ]
    entries = tuple(CheckEntry(label, _rel(a, b), tol) for label, a, b in pairs)
    metadata = {
        "hopf_params": hp.as_dict(),
        "A": hc.A,
        "gamma": g,
        # reported for reference: the printed variant of the second product
        "c1*c4": hc.c1 * hc.c4,
        "q^alpha*gamma": q_ag,
    }
    return CheckReport("hopf-constraints", entries, metadata)
