import math
import struct

import numpy as np
import pytest

from pqosc import (
    NotLowestWeightError,
    apply_word,
    bracket,
    check_relations,
    dual,
    pq_sum_oracle,
    validate,
)
from pqosc import fock
from pqosc.fock import DimensionMismatchError, FockError, Shift, build

import dense_oracle
from dense_oracle import interior_projector

# weight fixture for (p=2, q=3, alpha=1, beta=0, l=1), frozen from the
# summation oracle level by level
WEIGHTS_FIXTURE = [0.0, 1.0, 3.5, 10.75, 32.375]


def test_weights_match_oracle(base_params):
    rep = build(base_params, dim=4)
    assert np.asarray(rep.weights).shape == (5,)
    for k, want in enumerate(WEIGHTS_FIXTURE):
        assert rep.weights[k] == pytest.approx(want, rel=1e-13, abs=1e-15)
        assert pq_sum_oracle(k, 2, 3) == pytest.approx(want, rel=1e-15)


def test_raising_is_transpose(base_params):
    rep = build(base_params, dim=8)
    a = dense_oracle.matrix(rep.generator("a"))
    assert np.array_equal(dense_oracle.matrix(rep.generator("a+")), a.T)


def test_nonzero_beta_default_needs_lowest_weight():
    params = validate(2, 3, 1, 0.5, 1)
    assert bracket(0.5, params) == pytest.approx(0.40998, rel=1e-4)
    with pytest.raises(NotLowestWeightError):
        build(params, dim=6)
    # w_0 = bracket(-50) is -8.9e-16 here and every later weight is
    # negative too: at every dim the refusal is for w_0, whatever the
    # largest weight.
    for dim in (3, 16):
        with pytest.raises(NotLowestWeightError, match=r"^w_0 = -8\.88178e-16 != 0"):
            build(validate(0.5, 3, 1, -50, 1), dim)


@pytest.mark.parametrize("x0, raises", [(1e-13, True), (-0.5, True), (0.0, False), (-0.0, False)],
                         ids=["tiny-positive", "negative", "zero", "negative-zero"])
def test_lowest_weight_rule_is_exact(base_params, x0, raises):
    # The representation exists exactly when w_0 = bracket(x0) is 0.0, so
    # the verdict on x0 is the same at every dim, however large the
    # largest weight grows.
    for dim in (6, 16, 40):
        if raises:
            with pytest.raises(NotLowestWeightError, match=r"^w_0 = .* != 0: level 0"):
                build(base_params, dim, x0=x0)
        else:
            rep = build(base_params, dim, x0=x0)
            assert rep.weights[0] == 0.0
            assert rep.weights == build(base_params, dim).weights


def test_nonzero_beta_with_explicit_x0():
    params = validate(2, 3, 1, 0.5, 1)
    rep = build(params, dim=6, x0=0.0)
    report = check_relations(rep, "grading", tol=1e-11 * float(np.asarray(rep.weights).max()))
    assert report.passed


def test_grading_relations_close(base_params):
    rep = build(base_params, dim=16)
    maxweight = float(np.max(np.abs(rep.weights)))
    report = check_relations(rep, "grading", tol=1e-11 * maxweight)
    assert report.passed
    assert report.metadata["mode"] == "grading"


def test_literal_equals_grading_at_unit_alpha(base_params):
    rep = build(base_params, dim=16)
    grading = check_relations(rep, "grading", tol=1e-9)
    literal = check_relations(rep, "literal", tol=1e-9)
    for e_g, e_l in zip(grading.entries, literal.entries):
        assert abs(e_g.residual - e_l.residual) <= 1e-10


def test_literal_fails_for_alpha_two():
    params = validate(2, 3, 2, 0, 1)
    rep = build(params, dim=16)
    report = check_relations(rep, "literal", tol=1e-10)
    assert not report.passed
    assert report.max_residual() > 0.1


def test_twisted_commutator_any_twist(base_params):
    rep = build(base_params, dim=12)
    a, a_dag = (dense_oracle.matrix(rep.generator(s)) for s in ("a", "a+"))
    pi = interior_projector(rep.dim, 1)
    for twist in (-1.3, 0.0, 0.7, 2.0):
        lhs = (a @ a_dag - twist * a_dag @ a) @ pi
        weights = np.asarray(rep.weights)
        want = np.diag(weights[1 : rep.dim + 1] - twist * weights[: rep.dim]) @ pi
        assert np.max(np.abs(lhs - want)) <= 1e-12 * float(np.max(np.abs(rep.weights)))


def test_ladder_products_are_weight_diagonals(base_params):
    rep = build(base_params, dim=10)
    a, a_dag = (dense_oracle.matrix(rep.generator(s)) for s in ("a", "a+"))
    scale = float(np.max(np.abs(rep.weights)))
    assert np.max(np.abs(a_dag @ a - np.diag(rep.weights[: rep.dim]))) <= 1e-13 * scale
    pi = interior_projector(rep.dim, 1)
    lhs = (a @ a_dag) @ pi
    want = np.diag(rep.weights[1 : rep.dim + 1]) @ pi
    assert np.max(np.abs(lhs - want)) <= 1e-13 * scale


def test_weights_dual_invariant():
    for alpha, l in ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0)):
        params = validate(1.7, 0.4, alpha, 0.0, l)
        rep = build(params, dim=12)
        rep_dual = build(dual(params), dim=12)
        diff = np.asarray(rep.weights) - np.asarray(rep_dual.weights)
        assert np.all(np.abs(diff) <= 1e-12 * (1 + np.abs(rep.weights)))


@pytest.mark.parametrize("point, x0", [
    ((2.0, 3.0, 1.0, 0.0, 1.0), None),
    ((0.5, 3.0, 2.0, 0.3, 0.5), 0.0),
    ((1.5, 0.9, 0.5, -2.0, 2.0), 0.0),
    ((2.0, (1.0 + 1e-11) / 2.0, 1.0, 0.0, 1.0), None),
])
def test_weights_are_the_scalar_bracket_bit_for_bit(point, x0):
    params = validate(*point)
    rep = build(params, 40, x0)
    start = params.beta if x0 is None else x0
    want = [bracket(start + params.l * k, params) for k in range(41)]
    assert [w.hex() for w in rep.weights] == [w.hex() for w in want]


# Lattice values the a-weight kernel must take as math.sqrt does: NaN stays
# NaN, -0.0 stays -0.0, inf gives inf.  No weight past level 0 is negative
# once w_0 = 0 (test_structure's lattice invariant), so none is listed.
SPECIAL_WEIGHTS = [0.0, 2.25, math.nan, -0.0, math.inf, 0.0, 1.0]


def bits(values):
    return [struct.pack("<d", v) for v in values]


def test_ladder_weights_on_special_values_bit_for_bit(base_params, monkeypatch):
    def special_brackets(start, step, count, params):
        return [start + step * k for k in range(count)], SPECIAL_WEIGHTS[:count]

    monkeypatch.setattr(fock, "brackets", special_brackets)
    dim = len(SPECIAL_WEIGHTS) - 1
    rep = build(base_params, dim)
    want = [0.0] + [math.sqrt(w) for w in SPECIAL_WEIGHTS[1:dim]]
    assert bits(rep.ops["a"].weights) == bits(want)
    assert bits(rep.ops["a+"].weights) == bits(want[1:] + [0.0])
    assert bits(want[2:5]) == bits([math.nan, -0.0, math.inf])


def test_apply_word(base_params):
    rep = build(base_params, dim=6)
    ground = np.zeros(6)
    ground[0] = 1.0
    assert np.all(np.asarray(apply_word(rep, ["a"], ground)) == 0.0)

    mid = np.zeros(6)
    mid[2] = 1.0
    out = apply_word(rep, ["a", "a+"], mid)
    assert type(out) is list  # a new state the caller may change, as the old array was
    want = np.zeros(6)
    want[2] = rep.weights[3]
    assert np.allclose(out, want, rtol=1e-13)

    out_n = apply_word(rep, ["N"], mid)
    assert out_n[2] == pytest.approx(2 * base_params.l)


@pytest.mark.parametrize(
    "dtype", [np.float64, np.float32, np.longdouble, np.int64, np.bool_, ">f8"]
)
def test_apply_word_takes_any_real_dtype_as_floats(base_params, dtype):
    rep = build(base_params, dim=6)
    state = np.array([1.3, 0.0, 1.3, 2.6, 0.0, 1.3]).astype(dtype)
    assert state.dtype == np.dtype(dtype)
    want = apply_word(rep, ["a+", "a"], [float(v) for v in state])
    out = apply_word(rep, ["a+", "a"], state)
    assert all(type(v) is float for v in out)
    assert [v.hex() for v in out] == [v.hex() for v in want]


def test_apply_word_validates(base_params):
    rep = build(base_params, dim=4)
    with pytest.raises(ValueError):
        apply_word(rep, [], np.zeros(4))
    with pytest.raises(DimensionMismatchError):
        apply_word(rep, ["a"], np.zeros(5))
    with pytest.raises(DimensionMismatchError):
        apply_word(rep, ["a"], np.zeros((4, 1)))
    with pytest.raises(DimensionMismatchError):
        apply_word(rep, ["a"], 5)
    with pytest.raises(ValueError, match="finite"):
        apply_word(rep, ["a"], [0.0, np.nan, 0.0, 0.0])
    with pytest.raises(KeyError):
        apply_word(rep, ["bogus"], np.zeros(4))


def test_relations_need_an_interior_level(base_params):
    assert check_relations(build(base_params, dim=2)).passed
    rep = build(base_params, dim=1)
    for mode in ("grading", "literal"):
        with pytest.raises(ValueError):
            check_relations(rep, mode)
    with pytest.raises(ValueError, match="mode must be 'grading' or 'literal', got 'bogus'"):
        check_relations(build(base_params, dim=4), "bogus")
    with pytest.raises(FockError, match="dim must be positive, got 0"):
        build(base_params, 0)


def test_nan_weight_fails_its_relations(base_params):
    rep = build(base_params, dim=8)
    weights = list(rep.ops["a"].weights)
    weights[3] = np.nan
    bad = rep._replace(ops={**rep.ops, "a": Shift(-1, tuple(weights))})
    report = check_relations(bad, "grading", tol=1e-9)
    residuals = {e.label: e.residual for e in report.entries}
    # a[3] enters a a+ and a+ a on levels 2 and 3, and [N, a] on level 3
    assert np.isnan(residuals["aa+ - q^l a+a = P"])
    assert np.isnan(residuals["aa+ - p^-l a+a = Q"])
    assert np.isnan(residuals["[N, a] = -l a"])
    assert residuals["[N, a+] = l a+"] <= 1e-9
    assert not report.passed
