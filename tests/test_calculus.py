from itertools import product

import pytest
from hypothesis import given, strategies as st

from pqosc import (
    ExpSeries,
    ZeroAlphaError,
    check_realization,
    d_op,
    dilation_op,
    euler_op,
    f_general,
    mult_op,
    validate,
)
from pqosc import calculus
from pqosc.calculus import dilation_map, lower_map, number_map, raise_map
from pqosc.fock import build


def test_series_merges_duplicate_exponents():
    s = ExpSeries.from_terms([(1.0, 2.0), (1.0 + 1e-15, 3.0), (0.0, 1.0)])
    assert len(s.terms) == 2
    assert s.coefficient(1.0) == 5.0


def test_series_prunes_tiny_and_cancelled_terms():
    s = ExpSeries.from_terms([(2.0, 1.0), (2.0, -1.0)])
    assert s.is_zero()


def test_series_is_a_value_not_a_tuple():
    s = ExpSeries.from_terms([(1.0, 2.0), (0.0, 1.0)])
    assert repr(s) == "ExpSeries(terms=((0.0, 1.0), (1.0, 2.0)))"
    assert s == ExpSeries(((0.0, 1.0), (1.0, 2.0))) and s != s.terms
    assert hash(s) == hash(ExpSeries(s.terms))
    assert (2 * s).terms == ((0.0, 2.0), (1.0, 4.0))
    with pytest.raises(TypeError):
        s * 2
    with pytest.raises(TypeError):
        len(s)
    with pytest.raises(AttributeError):
        s.terms = ()


def test_series_term_bound():
    with pytest.raises(ValueError):
        ExpSeries.from_terms((float(i), 1.0) for i in range(20001))


def test_d_op_monomials(base_params):
    out = d_op(ExpSeries.monomial(2.0), base_params)
    assert out.terms == ((1.0, pytest.approx(3.5, rel=1e-14)),)
    assert d_op(ExpSeries.monomial(0.0), base_params).is_zero()
    out1 = d_op(ExpSeries.monomial(1.0), base_params)
    assert out1.coefficient(0.0) == pytest.approx(1.0, rel=1e-14)


def test_mult_op_shifts_exponents():
    params = validate(2, 3, 2, 0, 1)
    out = mult_op(ExpSeries.monomial(2.0), params)
    assert out.terms == ((2.5, 1.0),)
    assert mult_op(ExpSeries.zero(), params).is_zero()
    two = ExpSeries.from_terms([(0.0, 2.0), (1.0, 3.0)])
    out2 = mult_op(two, validate(2, 3, 1, 0, 1))
    assert out2.terms == ((1.0, 2.0), (2.0, 3.0))


def test_euler_op():
    params = validate(2, 3, 2, 0, 1)
    out = euler_op(ExpSeries.monomial(3.0), params)
    assert out.terms == ((3.0, 6.0),)
    assert euler_op(ExpSeries.monomial(0.0), params).is_zero()
    out2 = euler_op(ExpSeries.monomial(1.5), validate(2, 3, 1, 0, 1))
    assert out2.coefficient(1.5) == pytest.approx(1.5)


def test_dilation_op():
    out = dilation_op(ExpSeries.monomial(2.0), ratio=3.0, prefactor=1.0)
    assert out.coefficient(2.0) == pytest.approx(9.0, rel=1e-14)
    # q^(alpha N + beta) with alpha=2, beta=1, q=3 acting on z^1
    out2 = dilation_op(ExpSeries.monomial(1.0), ratio=3.0 ** 2, prefactor=3.0)
    assert out2.coefficient(1.0) == pytest.approx(27.0, rel=1e-14)
    with pytest.raises(ValueError):
        dilation_op(ExpSeries.monomial(1.0), ratio=-1.0, prefactor=1.0)


def test_ladder_products_scale_by_structure_function():
    params = validate(2, 3, 2, 0.5, 1)
    shift = params.l / params.alpha
    for e in (-2.0, -0.5, 0.0, 1.0, 2.5):
        m = ExpSeries.monomial(e)
        lower_raise = d_op(mult_op(m, params), params)
        assert lower_raise.coefficient(e) == pytest.approx(
            f_general(e + shift, params), rel=1e-13
        )
        raise_lower = mult_op(d_op(m, params), params)
        want = f_general(e, params)
        assert raise_lower.coefficient(e) == pytest.approx(want, rel=1e-13, abs=1e-300)


def test_check_realization_unit_alpha(base_params):
    report = check_realization(base_params, [0.0, 1.0, 2.0, 3.0], tol=1e-12)
    assert report.passed


def test_check_realization_general_alpha_beta():
    params = validate(2, 3, 2, 0.5, 1)
    report = check_realization(params, [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0], tol=1e-12)
    assert report.passed


def test_check_realization_zero_alpha():
    params = validate(2, 3, 0, 0, 1)
    with pytest.raises(ZeroAlphaError):
        check_realization(params, [0.0, 1.0], tol=1e-12)


def test_check_realization_needs_an_exponent(base_params):
    with pytest.raises(ValueError):
        check_realization(base_params, [])


def test_matches_fock_weights(base_params):
    # with beta = 0, the monomial ladder on exponents k*l/alpha carries the
    # same weight sequence as the matrix representation
    for alpha, l in ((1.0, 1.0), (2.0, 1.0), (0.5, 1.5)):
        params = validate(2, 3, alpha, 0.0, l)
        rep = build(params, dim=10, x0=0.0)
        for k in range(10):
            e_k = k * (l / alpha)
            got = f_general(e_k, params)
            assert abs(got - rep.weights[k]) <= 1e-12 * (1 + abs(rep.weights[k]))


@given(
    exps=st.lists(st.floats(-4, 4), min_size=1, max_size=5, unique=True),
    coeffs=st.lists(st.floats(-10, 10), min_size=5, max_size=5),
    scalar=st.floats(-3, 3),
)
def test_operators_are_linear(exps, coeffs, scalar):
    params = validate(2.0, 3.0, 2.0, 0.5, 1.0)
    s1 = ExpSeries.from_terms(zip(exps, coeffs[: len(exps)]))
    s2 = ExpSeries.from_terms((e + 0.25, c) for e, c in s1.terms)
    for op in (
        lambda s: d_op(s, params),
        lambda s: mult_op(s, params),
        lambda s: euler_op(s, params),
        lambda s: dilation_op(s, 1.7, 0.9),
    ):
        lhs = op(s1 + scalar * s2)
        rhs = op(s1) + scalar * op(s2)
        diff = lhs - rhs
        scale = 1.0 + max(lhs.max_abs_coeff(), rhs.max_abs_coeff())
        assert diff.max_abs_coeff() <= 1e-13 * scale


@given(
    exps=st.lists(st.floats(-4, 4), min_size=1, max_size=6, unique=True),
    coeffs=st.lists(st.floats(-10, 10), min_size=6, max_size=6),
)
def test_series_operators_apply_their_term_maps(exps, coeffs):
    params = validate(2.0, 3.0, 2.0, 0.5, 1.0)
    s = ExpSeries.from_terms(zip(exps, coeffs))
    for op, term_map in (
        (lambda s: d_op(s, params), lower_map(params)),
        (lambda s: mult_op(s, params), raise_map(params)),
        (lambda s: euler_op(s, params), number_map(params)),
        (lambda s: dilation_op(s, 1.7, 0.9), dilation_map(1.7, 0.9)),
    ):
        assert op(s) == ExpSeries.from_terms(term_map(e, c) for e, c in s.terms)


def series_residuals(params, exponents):
    """The four realization residuals composed from the series operators."""
    p, q, alpha, beta, l = params.p, params.q, params.alpha, params.beta, params.l
    ql, pl = q ** l, p ** (-l)
    worst = [0.0] * 4
    for e in exponents:
        m = ExpSeries.monomial(float(e))
        up, down = mult_op(m, params), d_op(m, params)
        aa, a_a = d_op(up, params), mult_op(down, params)
        n_m = euler_op(m, params)
        lhs1 = euler_op(up, params) - mult_op(n_m, params)
        scale1 = 1.0 + max(lhs1.max_abs_coeff(), abs(l) * up.max_abs_coeff())
        lhs2 = euler_op(down, params) - d_op(n_m, params)
        scale2 = 1.0 + max(lhs2.max_abs_coeff(), abs(l) * down.max_abs_coeff())
        rhs_p = dilation_op(m, p ** (-alpha), p ** (-beta))
        scale3 = 1.0 + max(aa.max_abs_coeff(), ql * a_a.max_abs_coeff(), rhs_p.max_abs_coeff())
        rhs_q = dilation_op(m, q ** alpha, q ** beta)
        scale4 = 1.0 + max(aa.max_abs_coeff(), pl * a_a.max_abs_coeff(), rhs_q.max_abs_coeff())
        residuals = (
            (lhs1 - l * up).max_abs_coeff() / scale1,
            (lhs2 + l * down).max_abs_coeff() / scale2,
            (aa - ql * a_a - rhs_p).max_abs_coeff() / scale3,
            (aa - pl * a_a - rhs_q).max_abs_coeff() / scale4,
        )
        worst = [max(w, r) for w, r in zip(worst, residuals)]
    return worst


def test_check_realization_matches_series_composition():
    # check_realization applies the term maps to monomials; composing the
    # series operators gives the same residuals bit for bit.  Non-dyadic
    # alpha, l and beta make a reassociated product show; at 0.1 and
    # alpha = 0.37, (e + l/alpha) - l/alpha != e, so the term-list path runs.
    exponents = [-3.0, -1.5, 0.0, 0.1, 0.25, 1.0, 2.0, 3.0, 5.0]
    assert (0.1 + 1.0 / 0.37) - 1.0 / 0.37 != 0.1
    for p, q, alpha, beta, l in product(
        (0.5, 1.5, 2.0),
        (0.3, 0.9, 3.0),
        (0.5, 1.0, 2.0, -1.3, 0.37),
        (0.0, 0.5, -1.25),
        (0.5, 1.0, 2.0, 0.1, 7.0),
    ):
        if p * q == 1.0:
            continue
        params = validate(p, q, alpha, beta, l)
        report = check_realization(params, exponents)
        got = [e.residual.hex() for e in report.entries]
        assert got == [r.hex() for r in series_residuals(params, exponents)], params


def test_check_realization_catches_a_twisted_lowering(monkeypatch):
    params = validate(2, 3, 2, 0.5, 1)
    exponents = [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
    assert check_realization(params, exponents, tol=1e-12).passed
    exact = calculus.f_general
    monkeypatch.setattr(calculus, "f_general", lambda n, prm: exact(n, prm) * (1.0 + 1e-6))
    report = check_realization(params, exponents, tol=1e-12)
    # scaling a by a constant leaves both commutators with N intact
    failed = {entry.label for entry in report.entries if not entry.passed}
    assert failed == {"aa+ - q^l a+a = P", "aa+ - p^-l a+a = Q"}
