import math

import pytest
from hypothesis import given, strategies as st

from pqosc import (
    DegenerateDenominatorError,
    bracket,
    NonPositiveBaseError,
    ZeroAlphaError,
    dual,
    validate,
)
from pqosc.params import require_nonzero_alpha


def test_validate_accepts_generic_tuple():
    params = validate(2, 3, 1, 0, 1)
    assert (params.p, params.q, params.alpha, params.beta, params.l) == (2, 3, 1, 0, 1)


def test_validate_rejects_pq_equal_one():
    with pytest.raises(DegenerateDenominatorError):
        validate(2, 0.5, 1, 0, 1)


@pytest.mark.parametrize("p, q, l", [(1e-200, 1e-200, 1.0), (1e-300, 1e-30, -0.5), (1e200, 1e200, 2.0)])
def test_validate_decides_on_the_log_sum_where_pq_leaves_the_range(p, q, l):
    # p*q underflows to 0 or overflows to inf; ln p + ln q, the L the bracket
    # divides by, is finite and far from 0
    params = validate(p, q, 1, 0, l)
    assert params.bracket_constants[1] == 0.5 * (math.log(p) + math.log(q))
    with pytest.raises(DegenerateDenominatorError):
        validate(p, 1 / p, 1, 0, l)


def test_validate_rejects_nonpositive_base():
    with pytest.raises(NonPositiveBaseError):
        validate(-1, 3, 1, 0, 1)
    with pytest.raises(NonPositiveBaseError):
        validate(2, 0, 1, 0, 1)


def test_validate_rejects_l_zero():
    # l = 0 makes (p*q)**l = 1 regardless of the bases, also where p*q overflows
    for p, q in ((2, 3), (1e200, 1e200)):
        with pytest.raises(DegenerateDenominatorError):
            validate(p, q, 1, 0, 0)


def test_zero_alpha_is_soft():
    params = validate(2, 3, 0, 0, 1)
    with pytest.raises(ZeroAlphaError):
        require_nonzero_alpha(params)


def test_dual_examples():
    d = dual(validate(2, 3, 1, 0, 1))
    assert d.p == pytest.approx(1 / 3)
    assert d.q == pytest.approx(1 / 2)
    r = dual(validate(2, 2, 1, 0, 1))
    assert r.p == r.q == 0.5


@given(
    p=st.floats(0.05, 20.0),
    q=st.floats(0.05, 20.0),
    alpha=st.floats(-3, 3),
    beta=st.floats(-2, 2),
    l=st.floats(-2, 2),
)
def test_dual_is_involution(p, q, alpha, beta, l):
    if abs(l * math.log(p * q)) <= 1e-6:
        return
    params = validate(p, q, alpha, beta, l)
    back = dual(dual(params))
    assert back.p == pytest.approx(params.p, rel=1e-15)
    assert back.q == pytest.approx(params.q, rel=1e-15)
    assert (back.alpha, back.beta, back.l) == (params.alpha, params.beta, params.l)


@given(p=st.floats(0.05, 20.0), q=st.floats(0.05, 20.0), l=st.floats(-2, 2))
def test_validity_is_dual_invariant(p, q, l):
    try:
        params = validate(p, q, 1.0, 0.0, l)
    except (DegenerateDenominatorError, NonPositiveBaseError):
        return
    d = dual(params)
    validate(d.p, d.q, d.alpha, d.beta, d.l)


XS = (-2.5, 0.0, 1.0, 3.7, 12.0)


def test_bracket_constants_belong_to_each_instance():
    params = validate(2, 3, 1.5, 0.5, 1.25)
    before = [bracket(x, params) for x in XS]  # fills params' cache
    replaced = params._replace(p=1.5)
    fresh = validate(1.5, 3, 1.5, 0.5, 1.25)
    assert replaced.bracket_constants == fresh.bracket_constants
    assert [bracket(x, replaced) for x in XS] == [bracket(x, fresh) for x in XS]
    assert [bracket(x, replaced) for x in XS] != before
    mirrored = dual(params)
    assert mirrored.bracket_constants != params.bracket_constants
    assert mirrored.bracket_constants == validate(1 / 3, 1 / 2, 1.5, 0.5, 1.25).bracket_constants
    # the bracket is dual-invariant, whichever constants evaluate it
    assert [bracket(x, mirrored) for x in XS] == pytest.approx(before, rel=1e-14)
    assert [bracket(x, params) for x in XS] == before


def test_bracket_constants_leave_the_fields_alone():
    params = validate(2, 3, 1.5, 0.5, 1.25)
    twin = validate(2, 3, 1.5, 0.5, 1.25)
    seen = (params == twin, hash(params), repr(params), params.as_dict())
    bracket(1.0, params)
    assert "bracket_constants" in vars(params) and "bracket_constants" not in vars(twin)
    assert (params == twin, hash(params), repr(params), params.as_dict()) == seen
    assert repr(params) == "DeformationParams(p=2.0, q=3.0, alpha=1.5, beta=0.5, l=1.25)"
    assert params.as_dict() == {"p": 2.0, "q": 3.0, "alpha": 1.5, "beta": 0.5, "l": 1.25}
    with pytest.raises(AttributeError):
        params.p = 1.5
