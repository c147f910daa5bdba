import json
import math
from itertools import product

import pytest

from pqosc import ZeroAlphaError, check_realization, cli, f_general, validate
from pqosc import calculus
from pqosc.fock import build
from pqosc.params import require_nonzero_alpha
from pqosc.structure import checked_exp


# The term-list reference.  A term list is a tuple of float (exponent,
# coefficient) pairs; composed term lists stand in for series.  Exponents
# are equal iff |e1 - e2| <= EXPONENT_TOL * (1 + |e1|), and a summed
# coefficient below COEFF_PRUNE in magnitude is dropped.
EXPONENT_TOL = 1e-12
COEFF_PRUNE = 1e-300


# Each operator as a monomial map: one term (e, c) to its image (e', c').
def lower_map(params):
    """a: (e, c) -> (e - l/alpha, c * f_general(e))."""
    require_nonzero_alpha(params)
    shift = params.l / params.alpha
    return lambda e, c: (e - shift, c * f_general(e, params))


def raise_map(params):
    """a+: (e, c) -> (e + l/alpha, c)."""
    require_nonzero_alpha(params)
    shift = params.l / params.alpha
    return lambda e, c: (e + shift, c)


def number_map(params):
    """N: (e, c) -> (e, c * alpha * e)."""
    alpha = params.alpha
    return lambda e, c: (e, c * alpha * e)


def dilation_map(ratio, prefactor):
    """z -> ratio*z with an overall prefactor: (e, c) -> (e, c * prefactor * ratio**e)."""
    if not (ratio > 0.0):
        raise ValueError(f"ratio must be positive, got {ratio}")
    lr = math.log(ratio)
    return lambda e, c: (e, c * prefactor * checked_exp(e * lr))


def _normalize(pairs):
    """(exponent, coefficient) pairs sorted, near-equal exponents merged, tiny terms pruned."""
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


def _max_abs_coeff(terms):
    return max([abs(c) for _, c in terms], default=0.0)


def test_series_merges_duplicate_exponents():
    terms = _normalize([(1.0, 2.0), (1.0 + 1e-15, 3.0), (0.0, 1.0)])
    assert terms == ((0.0, 1.0), (1.0, 5.0))


def test_series_prunes_tiny_and_cancelled_terms():
    assert _normalize([(2.0, 1.0), (2.0, -1.0)]) == ()
    assert _normalize([(0.0, 1e-301), (1.0, 2.0)]) == ((1.0, 2.0),)


def test_d_op_monomials(base_params):
    a = lower_map(base_params)
    assert a(2.0, 1.0) == (1.0, pytest.approx(3.5, rel=1e-14))
    assert a(0.0, 1.0) == (-1.0, 0.0)
    assert a(1.0, 1.0) == (0.0, pytest.approx(1.0, rel=1e-14))


def test_mult_op_shifts_exponents():
    a_dag = raise_map(validate(2, 3, 2, 0, 1))
    assert a_dag(2.0, 1.0) == (2.5, 1.0)
    a_dag = raise_map(validate(2, 3, 1, 0, 1))
    assert [a_dag(e, c) for e, c in ((0.0, 2.0), (1.0, 3.0))] == [(1.0, 2.0), (2.0, 3.0)]


def test_euler_op():
    n_op = number_map(validate(2, 3, 2, 0, 1))
    assert n_op(3.0, 1.0) == (3.0, 6.0)
    assert n_op(0.0, 1.0) == (0.0, 0.0)
    assert number_map(validate(2, 3, 1, 0, 1))(1.5, 1.0) == (1.5, 1.5)


def test_dilation_op():
    assert dilation_map(ratio=3.0, prefactor=1.0)(2.0, 1.0) == (2.0, pytest.approx(9.0, rel=1e-14))
    # q^(alpha N + beta) with alpha=2, beta=1, q=3 acting on z^1
    q_op = dilation_map(ratio=3.0 ** 2, prefactor=3.0)
    assert q_op(1.0, 1.0) == (1.0, pytest.approx(27.0, rel=1e-14))
    for ratio in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError):
            dilation_map(ratio=ratio, prefactor=1.0)


def test_ladder_products_scale_by_structure_function():
    params = validate(2, 3, 2, 0.5, 1)
    a, a_dag = lower_map(params), raise_map(params)
    shift = params.l / params.alpha
    for e in (-2.0, -0.5, 0.0, 1.0, 2.5):
        lower_raise = a(*a_dag(e, 1.0))
        assert lower_raise == (e, pytest.approx(f_general(e + shift, params), rel=1e-13))
        raise_lower = a_dag(*a(e, 1.0))
        want = f_general(e, params)
        assert raise_lower == (e, pytest.approx(want, rel=1e-13, abs=1e-300))


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
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="exponents must be finite"):
            check_realization(base_params, [1.0, bad])


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


# Term lists composed the way a series of (exponent, coefficient) pairs would
# be: every sum, scaling and operator image normalized once.
def _apply(term_map, terms):
    return _normalize([term_map(e, c) for e, c in terms])


def _scale(x, terms):
    return _normalize([(e, x * c) for e, c in terms])


def _add(s, t):
    return _normalize(s + t)


def _sub(s, t):
    return _add(s, _scale(-1.0, t))


def series_residuals(params, exponents):
    """The four realization residuals composed on normalized term lists.

    The reference agrees with check_realization, bit for bit, only where
    every image stays within EXPONENT_TOL of its exponent: an image that
    drifts further no longer merges with the terms it cancels.
    """
    p, q, alpha, beta, l = params.p, params.q, params.alpha, params.beta, params.l
    ql, pl = q ** l, p ** (-l)
    a, a_dag, n_op = lower_map(params), raise_map(params), number_map(params)
    p_op = dilation_map(p ** (-alpha), p ** (-beta))
    q_op = dilation_map(q ** alpha, q ** beta)
    worst = [0.0] * 4
    for e in exponents:
        m = _normalize([(float(e), 1.0)])
        up, down = _apply(a_dag, m), _apply(a, m)
        aa, a_a = _apply(a, up), _apply(a_dag, down)
        n_m = _apply(n_op, m)
        lhs1 = _sub(_apply(n_op, up), _apply(a_dag, n_m))
        scale1 = 1.0 + max(_max_abs_coeff(lhs1), abs(l) * _max_abs_coeff(up))
        lhs2 = _sub(_apply(n_op, down), _apply(a, n_m))
        scale2 = 1.0 + max(_max_abs_coeff(lhs2), abs(l) * _max_abs_coeff(down))
        rhs_p = _apply(p_op, m)
        scale3 = 1.0 + max(_max_abs_coeff(aa), ql * _max_abs_coeff(a_a), _max_abs_coeff(rhs_p))
        rhs_q = _apply(q_op, m)
        scale4 = 1.0 + max(_max_abs_coeff(aa), pl * _max_abs_coeff(a_a), _max_abs_coeff(rhs_q))
        residuals = (
            _max_abs_coeff(_sub(lhs1, _scale(l, up))) / scale1,
            _max_abs_coeff(_add(lhs2, _scale(l, down))) / scale2,
            _max_abs_coeff(_sub(_sub(aa, _scale(ql, a_a)), rhs_p)) / scale3,
            _max_abs_coeff(_sub(_sub(aa, _scale(pl, a_a)), rhs_q)) / scale4,
        )
        worst = [max(w, r) for w, r in zip(worst, residuals)]
    return worst


def test_check_realization_matches_series_composition():
    # check_realization reads each relation in closed form; composing the
    # same maps on normalized term lists gives the same residuals bit for bit.  Non-dyadic
    # alpha, l and beta make a reassociated product show; at 0.1 and
    # alpha = 0.37, (e + l/alpha) - l/alpha != e, so the images the
    # reference merges lie off e by rounding.
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


def test_check_realization_small_alpha_passes():
    # l/alpha = 30000: at e = 0.1, (e + l/alpha) - l/alpha misses e by more
    # than the reference's EXPONENT_TOL, and its term lists read about 0.5
    params = validate(2, 3, 1e-4 / 3, 0, 1)
    exponents = [-2.5, -0.5, 0.1, 1.5, 4.25]
    shift = params.l / params.alpha
    assert abs(0.1 + shift - shift - 0.1) > EXPONENT_TOL * 1.1
    report = check_realization(params, exponents)
    assert report.passed
    assert report.max_residual() <= 1e-15
    assert min(series_residuals(params, exponents)[2:]) > 0.4


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


# fe * alpha * down overflows at e = -3, and -inf - -inf is NaN there
NAN_POINT = {
    "p": "0.1358324183340469",
    "q": "5868.292187502873",
    "alpha": "-11.324395803031946",
    "beta": "43.64203932595376",
    "l": "-17.211969560028464",
}


def test_check_realization_fails_a_nan_residual(capsys):
    params = validate(*(float(v) for v in NAN_POINT.values()))
    assert check_realization(params, [-2.0, 0.0, 5.0]).passed
    report = check_realization(params, cli._CALCULUS_EXPONENTS)
    (lower,) = [e for e in report.entries if e.label == "[N, a] = -l a"]
    assert math.isnan(lower.residual) and not lower.passed
    assert not report.passed
    argv = [f"--{key}={value}" for key, value in NAN_POINT.items()]
    assert cli.run(["calculus-check", *argv, "--format", "csv"]) == 1
    assert '"[N, a] = -l a",nan,1e-10,false\n' in capsys.readouterr().out
    assert cli.run(["calculus-check", *argv, "--no-timestamp"]) == 1

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
    (row,) = [r for r in payload["results"] if r["label"] == "[N, a] = -l a"]
    assert (row["residual"], row["pass"]) == ("nan", False)
