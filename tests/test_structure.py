import math
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import assume, given, settings, strategies as st

from pqosc import (
    DegenerateDenominatorError,
    ExponentOverflowError,
    NonPositiveBaseError,
    bracket,
    brackets,
    check_pq_inversion,
    checked_exp,
    dual,
    f_general,
    pq_sum_oracle,
    validate,
)

P_GRID = (0.5, 1.5, 2.0)
Q_GRID = (0.3, 0.9, 3.0)


def test_f_general_frozen_values(base_params):
    assert f_general(0, base_params) == pytest.approx(0.0, abs=1e-15)
    assert f_general(1, base_params) == pytest.approx(1.0, rel=1e-14)
    # expected values frozen from the summation oracle
    assert f_general(2, base_params) == pytest.approx(3.5, rel=1e-14)
    assert f_general(3, base_params) == pytest.approx(10.75, rel=1e-14)
    assert f_general(4, base_params) == pytest.approx(32.375, rel=1e-14)


def test_oracle_values():
    assert pq_sum_oracle(0, 2, 3) == 0.0
    assert pq_sum_oracle(2, 2, 3) == pytest.approx(3.5, rel=1e-15)
    assert pq_sum_oracle(3, 2, 3) == pytest.approx(10.75, rel=1e-15)
    assert pq_sum_oracle(4, 2, 3) == pytest.approx(32.375, rel=1e-15)
    assert pq_sum_oracle(5, 1, 1) == 5.0


def test_oracle_rejects_negative_n():
    with pytest.raises(ValueError):
        pq_sum_oracle(-1, 2, 3)


@pytest.mark.parametrize("p", P_GRID)
@pytest.mark.parametrize("q", Q_GRID)
def test_oracle_equivalence_on_grid(p, q):
    if abs(p * q - 1) < 1e-9:
        pytest.skip("degenerate point")
    params = validate(p, q, 1, 0, 1)
    for n in range(26):
        want = pq_sum_oracle(n, p, q)
        got = f_general(n, params)
        assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_scheme_values():
    """The classical schemes are validate at their maps: Arik-Coon is p = 1,
    the symmetric bracket p = q, its generalized form frees alpha and beta."""
    assert f_general(3, validate(1.0, 0.5, 1, 0, 1)) == pytest.approx(1.75, rel=1e-15)
    assert f_general(2, validate(2.0, 2.0, 1, 0, 1)) == pytest.approx(2.5, rel=1e-15)
    # symmetric generalized bracket at alpha*n + beta = 2
    got = f_general(2, validate(2.0, 2.0, 0.5, 1.0, 1))
    assert got == pytest.approx(2.5, rel=1e-14)


def test_scheme_formulas():
    """Each scheme's parameter map reproduces its textbook formula."""
    for q in Q_GRID:
        for n in (-2.0, 0.0, 1.0, 2.5, 7.0):
            want = (1 - q ** n) / (1 - q)
            assert f_general(n, validate(1.0, q, 1, 0, 1)) == pytest.approx(
                want, rel=1e-14, abs=1e-14
            )
            want = (q ** -n - q ** n) / (q ** -1 - q)
            assert f_general(n, validate(q, q, 1, 0, 1)) == pytest.approx(
                want, rel=1e-14, abs=1e-14
            )
            x = 0.5 * n + 0.25
            want = (q ** -x - q ** x) / (q ** -1 - q)
            assert f_general(n, validate(q, q, 0.5, 0.25, 1)) == pytest.approx(
                want, rel=1e-14, abs=1e-14
            )


def test_two_parameter_matches_general_at_unit_slope():
    """The plain two-base bracket (p**-n - q**n) / (p**-l - q**l) is alpha = 1, beta = 0."""
    for p in P_GRID:
        for q in Q_GRID:
            for l in (0.5, 1.0, 2.0):
                params = validate(p, q, 1, 0, l)
                for n in (-2.0, 0.0, 1.0, 2.5, 7.0):
                    want = (p ** -n - q ** n) / (p ** -l - q ** l)
                    assert f_general(n, params) == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_general_schemes_delegate():
    """At the general map every parameter is free: f(n) = bracket(alpha*n + beta)."""
    params = validate(0.7, 1.9, 2.0, 0.3, 0.5)
    for n in (-2.0, 0.0, 1.0, 2.5, 7.0):
        x = 2.0 * n + 0.3
        want = (0.7 ** -x - 1.9 ** x) / (0.7 ** -0.5 - 1.9 ** 0.5)
        assert f_general(n, params) == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_scheme_guards():
    """Each map raises what validate raises at its degenerate and invalid points."""
    with pytest.raises(DegenerateDenominatorError):
        validate(1.0, 1.0, 1, 0, 1)  # Arik-Coon and the symmetric bracket at q = 1
    with pytest.raises(DegenerateDenominatorError):
        validate(2.0, 0.5, 1, 0, 1)  # two-base at p*q = 1
    with pytest.raises(NonPositiveBaseError):
        validate(1.0, 0.0, 1, 0, 1)  # Arik-Coon at q = 0
    with pytest.raises(NonPositiveBaseError):
        validate(-2.0, -2.0, 1.0, 0.0, 1)  # generalized symmetric bracket at q = -2


def test_overflow_reported(base_params):
    with pytest.raises(ExponentOverflowError):
        f_general(1000, base_params)


@pytest.mark.parametrize("p, q", [(2.0, 3.0), (0.5, 0.3), (1.0, 3.0), (3.0, 0.5)])
# At l = 2000, sinh(l L/2) itself overflows for three of the base pairs.
@pytest.mark.parametrize("l", [1.0, -2.0, 300.0, 2000.0])
def test_overflow_guard_is_the_four_exponents(p, q, l):
    """bracket's guard raises exactly when one of p**-x, q**x, p**-l, q**l has
    |exponent| > 700; inside the guard it raises only where the bracket's own
    value leaves the double range, and returns a finite value elsewhere."""
    lp, lq = math.log(p), math.log(q)
    params = validate(p, q, 1.0, 0.0, l)
    edge = 700.0 / max(abs(lp), abs(lq))
    for x in (0.0, 1.5, edge, -edge, math.nextafter(edge, math.inf), 2 * edge, -2 * edge):
        exponents = (-x * lp, x * lq, -l * lp, l * lq)
        if max(abs(t) for t in exponents) > 700.0:
            with pytest.raises(ExponentOverflowError, match="exponent magnitude"):
                bracket(x, params)
        elif exact_magnitude(x, p, q, l) > Decimal(sys.float_info.max):
            with pytest.raises(ExponentOverflowError, match="double range"):
                bracket(x, params)
        else:
            assert math.isfinite(bracket(x, params))


def exact_magnitude(x: float, p: float, q: float, l: float) -> Decimal:
    """|p**-x - q**x| / |p**-l - q**l| in 40-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 40
        lp, lq = Decimal(p).ln(), Decimal(q).ln()
        x, l = Decimal(x), Decimal(l)
        return abs(((-x * lp).exp() - (x * lq).exp()) / ((-l * lp).exp() - (l * lq).exp()))


def test_checked_exp_scalar_and_array():
    assert checked_exp(700.0) == math.exp(700.0)
    assert type(checked_exp(-1.5)) is float
    for bad in (math.nextafter(700.0, math.inf), -701.0):
        with pytest.raises(ExponentOverflowError):
            checked_exp(bad)


@pytest.mark.parametrize("call", [
    lambda: checked_exp(700.3),
    lambda: bracket(637.2, validate(2, 3, 1, 0, 1)),  # 637.2 ln 3 = 700.036
    # the dual lattice's first failing level is 1e-13 past the limit
    lambda: check_pq_inversion(validate(1.0001, 31.446128080475482, 1, 0, 1), 300),
], ids=["checked_exp", "bracket", "check_pq_inversion"])
def test_guard_message_prints_the_magnitude_past_the_limit(call):
    """A magnitude in (700, 700.5) prints as a number above 700, not
    rounded down to the limit it exceeds."""
    with pytest.raises(ExponentOverflowError, match=r"^exponent magnitude \S+ exceeds 700$") as info:
        call()
    assert float(str(info.value).split()[2]) > 700.0


def test_zero_locus():
    params = validate(2, 3, 0.7, 0.3, 1)
    x0 = -params.beta / params.alpha
    lp, lq = math.log(2), math.log(3)
    den = abs(math.exp(-lp) - math.exp(lq))
    x = params.alpha * x0 + params.beta
    scale = (math.exp(-x * lp) + math.exp(x * lq)) / den
    assert abs(f_general(x0, params)) <= 1e-14 * scale


@given(
    p=st.floats(0.1, 10.0),
    q=st.floats(0.1, 10.0),
    alpha=st.floats(-2, 2),
    beta=st.floats(-1, 1),
    l=st.floats(0.25, 2),
)
def test_duality_invariance(p, q, alpha, beta, l):
    if abs(l * math.log(p * q)) <= 1e-6:
        return
    params = validate(p, q, alpha, beta, l)
    other = dual(params)
    for i in range(-20, 21):
        n = 0.5 * i
        a = f_general(n, params)
        b = f_general(n, other)
        assert abs(a - b) <= 1e-12 * (1 + abs(a))


@st.composite
def lattice_points(draw):
    """(params, dim): p, q log-uniform in e**-4 .. e**4, l of either sign with
    |l| in e**-5 .. e**2, a fifth of the points with |pq - 1| in 1e-11 .. 1e-2."""
    p = math.exp(draw(st.floats(-4.0, 4.0)))
    if draw(st.integers(0, 4)) == 0:
        gap = math.exp(draw(st.floats(math.log(1e-11), math.log(1e-2))))
        q = (1.0 + draw(st.sampled_from((-1.0, 1.0))) * gap) / p
    else:
        q = math.exp(draw(st.floats(-4.0, 4.0)))
    l = draw(st.sampled_from((-1.0, 1.0))) * math.exp(draw(st.floats(-5.0, 2.0)))
    try:
        params = validate(p, q, 1.0, 0.0, l)
    except DegenerateDenominatorError:
        assume(False)
    return params, draw(st.integers(1, 600))


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(point=lattice_points())
def test_lattice_from_zero_is_zero_then_positive(point):
    # fock.build decides existence by w_0 == 0.0 alone and takes sqrt(w_k)
    # unclamped.  That rests on this lattice, unless it overflows, having
    # w_0 exactly 0 and every later w_k positive, for l of either sign.
    params, dim = point
    try:
        _, weights = brackets(0.0, params.l, dim + 1, params)
    except ExponentOverflowError:
        return
    assert weights[0] == 0.0
    assert all(w > 0.0 for w in weights[1:])
