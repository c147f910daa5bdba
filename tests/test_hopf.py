import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from pqosc import (
    Beta1Beta2MismatchError,
    GammaUndefinedError,
    check_antipode,
    check_coassociativity,
    check_constraints,
    check_counit,
    check_homomorphism,
    solve_coefficients,
    validate_hopf,
)
from pqosc import hopf
from pqosc.fock import build
from pqosc.hopf import tensor_blocks
from pqosc.params import ZeroAlphaError
from pqosc.structure import EXP_LIMIT, ExponentOverflowError, bracket

import dense_oracle


def residual(report, label):
    """The residual of the report's entry with this label."""
    (value,) = [e.residual for e in report.entries if e.label == label]
    return value


@pytest.fixture
def solved():
    hp = validate_hopf(2, 3, 1, 1, 0.7, 0.7)
    return hp, solve_coefficients(hp)


@pytest.fixture
def rep8(solved):
    hp, _ = solved
    return build(hp.base_params(), 8, x0=0.0)


def gamma_root_oracle(hp, A):
    """Independent root solve of (p*q)**(alpha*g) = R."""
    R = (hp.q ** hp.beta1 - A * hp.q ** hp.beta2) / (
        hp.p ** (-hp.beta1) - A * hp.p ** (-hp.beta2)
    )
    func = lambda g: (hp.p * hp.q) ** (hp.alpha * g) - R
    return brentq(func, -50.0, 50.0, xtol=1e-14, rtol=1e-15)


def test_solve_fixture_values(solved):
    hp, hc = solved
    assert hc.A == pytest.approx(math.sqrt(1.5), rel=1e-15)
    assert hc.gamma == pytest.approx(0.7, abs=1e-12)
    assert hc.gamma == pytest.approx(gamma_root_oracle(hp, hc.A), abs=1e-10)
    assert hc.alpha1 == hc.alpha2 == hc.alpha3 == hc.alpha4 == 0.5
    assert (hc.c5, hc.c6, hc.c7, hc.c8) == (1.0, 1.0, 0.0, 0.0)
    assert hc.c9 == -hc.gamma
    assert (hc.c10, hc.c11, hc.c12, hc.c13) == (-1.0, -1.0, -1.0, 0.0)


def test_solve_matches_root_oracle_general():
    hp = validate_hopf(0.5, 3, 2, 1, 1.0, 0.0)
    hc = solve_coefficients(hp)
    assert hc.gamma == pytest.approx(gamma_root_oracle(hp, hc.A), abs=1e-10)


@pytest.mark.parametrize("beta", [-600.0, 600.0])
def test_solve_reads_gamma_from_logs_where_R_leaves_the_range(beta):
    # R = 6**beta underflows at -600 and overflows at 600; its logarithm does neither
    hc = solve_coefficients(validate_hopf(2, 3, 1, 1, beta, beta))
    assert hc.gamma == pytest.approx(beta, rel=1e-12)


def test_gamma_undefined_at_equal_bases():
    # A = 1 there, so R = -q**(beta1+beta2) < 0
    with pytest.raises(GammaUndefinedError):
        solve_coefficients(validate_hopf(2, 2, 1, 1, 1.0, 0.0))


def test_gamma_undefined_in_oscillator_regime():
    # with beta1 - beta2 = l and alpha = 1, A is the geometric mean of
    # p**-l and q**l, so R < 0 for every admissible p, q
    for p, q in ((2.0, 3.0), (0.5, 3.0), (1.5, 0.3), (2.0, 0.9)):
        with pytest.raises(GammaUndefinedError):
            solve_coefficients(validate_hopf(p, q, 1, 1, 1.0, 0.0))


def test_zero_alpha_rejected():
    with pytest.raises(ZeroAlphaError):
        solve_coefficients(validate_hopf(2, 3, 0, 1, 0.7, 0.7))


def test_constraints_close(solved):
    hp, hc = solved
    report = check_constraints(hc, hp, tol=1e-12)
    assert report.passed
    # the printed variant c1*c4 is reported for reference, not asserted
    assert "c1*c4" in report.metadata


def test_reduction_value_of_A():
    for p, q in ((2.0, 3.0), (0.5, 3.0)):
        hc = solve_coefficients(validate_hopf(p, q, 1, 1, 0.4, 0.4))
        assert hc.A == pytest.approx(math.sqrt(q / p), rel=1e-14)


def test_coproduct_matrix_identity_and_number(rep8, solved):
    _, hc = solved
    d = rep8.dim
    dense = dense_oracle.DenseHopf(rep8, hc)
    assert np.array_equal(dense.two_site("1"), np.eye(d * d))
    dn = dense.two_site("N")
    n_op = dense_oracle.matrix(rep8.generator("N"))
    want = (
        np.kron(n_op, np.eye(d))
        + np.kron(np.eye(d), n_op)
        + hc.gamma * np.eye(d * d)
    )
    assert np.max(np.abs(dn - want)) <= 1e-13


def test_coproduct_matrix_raising_by_hand(solved):
    hp, hc = solved
    rep = build(hp.base_params(), 2, x0=0.0)
    got = dense_oracle.DenseHopf(rep, hc).two_site("a+")
    g1 = np.diag([1.0, 2.0 ** -0.5])
    h2 = np.diag([1.0, 3.0 ** 0.5])
    a_dag = dense_oracle.matrix(rep.generator("a+"))
    want = hc.c1 * np.kron(a_dag, g1) + hc.c2 * np.kron(h2, a_dag)
    assert np.max(np.abs(got - want)) <= 1e-14


def test_coassociativity_closes(rep8, solved):
    _, hc = solved
    report = check_coassociativity(rep8, hc, tol=1e-10)
    assert report.passed


def test_coassociativity_number_insensitive_to_gamma(rep8, solved):
    _, hc = solved
    report = check_coassociativity(rep8, replace(hc, gamma=hc.gamma + 0.05), tol=1e-10)
    assert residual(report, "coassoc N") <= 1e-12


def test_coassociativity_detects_perturbation(rep8, solved):
    _, hc = solved
    report = check_coassociativity(rep8, replace(hc, c1=hc.c1 * 1.01), tol=1e-10)
    assert residual(report, "coassoc a+") > 1e-3


def test_coassociativity_pins_a_raised_c1_in_closed_form():
    # the word (a+, G1, G1) reads c1 p^(-a1 gamma) on one side and c1^2 on
    # the other, and is alone in its block: the residual is the gap times
    # the largest interior |a+| and |G1|^2 (G1 grows at p < 1)
    hp = validate_hopf(0.5, 3, 1, 1, 0.7, 0.7)
    hc = solve_coefficients(hp)
    dim = 10
    rep = build(hp.base_params(), dim, x0=0.0)
    c1 = hc.c1 * 1.01
    report = check_coassociativity(rep, replace(hc, c1=c1), tol=1e-10)
    params = hp.base_params()
    ad_max = max(math.sqrt(bracket(params.l * (k + 1), params)) for k in range(dim - 2))
    g1_max = max(hp.p ** (-hc.alpha1 * params.l * k / hp.alpha) for k in range(dim - 2))
    want = abs(c1 * hp.p ** (-hc.alpha1 * hc.gamma) - c1**2) * ad_max * g1_max**2
    assert residual(report, "coassoc a+") == pytest.approx(want, rel=1e-12)
    worst = report.metadata["worst"]
    assert (worst["generator"], worst["word"], worst["offset"]) == ("a+", ["a+", "G1", "G1"], [1, 0, 0])
    assert worst["basis"] == [dim - 3, dim - 3, dim - 3]


def test_coassociativity_pins_a_raised_c5_in_closed_form(rep8, solved):
    # every N word sits in the (0, 0, 0) block: (N, 1, 1) reads c5 against
    # c5^2, and (1, 1, 1) reads c6 gamma + gamma against c5 gamma + gamma
    _, hc = solved
    c5 = hc.c5 * 1.01
    report = check_coassociativity(rep8, replace(hc, c5=c5), tol=1e-10)
    n_max = rep8.params.l * (rep8.dim - 3)
    want = abs(c5 - c5**2) * n_max + abs((hc.c6 - c5) * hc.gamma)
    assert residual(report, "coassoc N") == pytest.approx(want, rel=1e-12)
    assert report.metadata["worst"]["word"] == ["N", "1", "1"]
    assert report.metadata["worst"]["basis"] == [rep8.dim - 3, 0, 0]


@pytest.mark.parametrize("field, value", [("alpha1", -EXP_LIMIT), ("c12", EXP_LIMIT)])
def test_an_out_of_range_diagonal_raises(rep8, solved, field, value):
    # p^(-alpha1 x) and the twist p^(alpha1 c12 x) leave the double range
    # at the top levels: an error, never an inf diagonal
    _, hc = solved
    bad = replace(hc, **{field: value})
    checks = [lambda: check_antipode(bad, rep8)]
    if field == "alpha1":  # the diagonal itself; c12 moves only the antipode twist
        checks += [lambda: check_coassociativity(rep8, bad), lambda: check_counit(bad, rep8)]
    for check in checks:
        with pytest.raises(ExponentOverflowError):
            check()


def test_coassociativity_memory_stays_small(solved):
    # the dense three-site matrices peaked at 114 MB here
    hp, hc = solved
    rep = build(hp.base_params(), 12, x0=0.0)
    tracemalloc.start()
    try:
        check_coassociativity(rep, hc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024**2


def test_coassociativity_closes_at_dim_48(solved):
    hp, hc = solved
    rep = build(hp.base_params(), 48, x0=0.0)
    assert check_coassociativity(rep, hc).max_residual() <= 1e-9


def test_coassociativity_needs_an_interior_level(solved):
    hp, hc = solved
    assert check_coassociativity(build(hp.base_params(), 3, x0=0.0), hc).passed
    for dim in (1, 2):
        with pytest.raises(ValueError):
            check_coassociativity(build(hp.base_params(), dim, x0=0.0), hc)


@pytest.mark.parametrize("symbol", ("a", "N"))
def test_nan_weight_fails_the_tensor_checks(rep8, solved, symbol):
    _, hc = solved
    weights = list(rep8.ops[symbol].weights)
    weights[3] = np.nan
    shift = rep8.ops[symbol]._replace(weights=tuple(weights))
    bad = rep8._replace(ops={**rep8.ops, symbol: shift})
    labels = {
        "hopf-coassociativity": [f"coassoc {symbol}"],
        "hopf-counit": [f"counit left {symbol}", f"counit right {symbol}"],
        "hopf-antipode": [f"antipode mutual {symbol}"],
    }
    for report in (
        check_coassociativity(bad, hc),
        check_counit(hc, bad),
        check_antipode(hc, bad),
    ):
        assert not report.passed
        assert math.isnan(report.max_residual())
        for label in labels[report.check]:
            assert np.isnan(residual(report, label))


def test_coassociativity_metadata(rep8, solved):
    _, hc = solved
    meta = check_coassociativity(rep8, hc).metadata
    # interior N entries are nu_1 + nu_2 + nu_3 + 2 gamma, levels below dim - 2
    assert meta["entry_scale"]["N"] == pytest.approx(3 * (rep8.dim - 3) + 2 * hc.gamma)
    assert meta["entry_scale"]["a+"] > meta["entry_scale"]["N"]
    worst = check_coassociativity(rep8, replace(hc, c1=hc.c1 * 1.01)).metadata["worst"]
    assert worst["generator"] == "a+"
    assert sum(worst["offset"]) == 1
    assert all(0 <= k < rep8.dim - 2 for k in worst["basis"])


def test_counit_closes(rep8, solved):
    _, hc = solved
    report = check_counit(hc, rep8, tol=1e-12)
    assert report.passed


def test_counit_detects_wrong_c9(rep8, solved):
    _, hc = solved
    report = check_counit(replace(hc, c9=0.0), rep8, tol=1e-12)
    assert residual(report, "counit left N") > 0.1


def test_antipode_mutual_equality(rep8, solved):
    _, hc = solved
    report = check_antipode(hc, rep8, tol=1e-10)
    assert report.passed
    closure = report.metadata["axiom_closure"]
    assert closure["1"] <= 1e-14
    assert closure["N"] == pytest.approx(2 * abs(hc.gamma), abs=1e-12)
    # the ladder generators do not close the full axiom; the gap is real
    assert closure["a+"] > 1.0


@pytest.mark.parametrize("p, q, alpha, l, beta1, beta2, dim", [
    (2, 3, 1, 1, 0.7, 0.7, 8),
    (0.5, 3, 2, 1, 1, 0, 8),
    (0.5, 3, 1, 1, 2, 2, 64),
    (1.5, 0.3, 0.5, 2, 0.3, 0.3, 16),
    (0.5, 3, 2, 1, 1, 0, 40),
])
def test_antipode_ladder_closure_gaps_in_closed_form(p, q, alpha, l, beta1, beta2, dim):
    # The solve gives c10 = c11 = c12 = -1 and c13 = 0, so S maps a to a and
    # G3 to G3, and m(id (x) S)D(a) = c3 a G3 + c4 H4 a against eps(a) = 0.
    # With a3 = a4 = alpha/2 its entry at input level k is sqrt(w_k) times
    # p^(-(alpha gamma + x_k)/2) + q^((alpha gamma + x_{k-1})/2): two
    # positive terms, nothing cancels.  a+ likewise, one level up.
    hp = validate_hopf(p, q, alpha, l, beta1, beta2)
    hc = solve_coefficients(hp)
    rep = build(hp.base_params(), dim, x0=0.0)
    closure = check_antipode(hc, rep).metadata["axiom_closure"]
    g, w = alpha * hc.gamma, rep.weights
    x = [l * k for k in range(dim)]
    want_a = max(
        math.sqrt(w[k]) * (p ** (-(g + x[k]) / 2) + q ** ((g + x[k - 1]) / 2))
        for k in range(1, dim)
    )
    want_ad = max(
        math.sqrt(w[k + 1]) * (p ** (-(g + x[k]) / 2) + q ** ((g + x[k + 1]) / 2))
        for k in range(dim - 1)
    )
    assert abs(closure["a"] - want_a) <= 1e-13 * want_a
    assert abs(closure["a+"] - want_ad) <= 1e-13 * want_ad


def test_antipode_detects_perturbed_c10(rep8, solved):
    _, hc = solved
    report = check_antipode(replace(hc, c10=hc.c10 * 1.01), rep8, tol=1e-10)
    assert residual(report, "antipode mutual a+") > 1e-3


def test_homomorphism_requires_offset_gap(rep8, solved):
    hp, hc = solved
    with pytest.raises(Beta1Beta2MismatchError):
        check_homomorphism(rep8, hc, hp)


@pytest.mark.parametrize("gap, raises", [(1e-11, True), (1e-13, False)])
def test_homomorphism_offset_gap_edge(gap, raises):
    # beta1 - beta2 must equal l to 1e-12: a 1e-11 mismatch is refused,
    # a 1e-13 one runs the transport check
    hp = validate_hopf(0.5, 3, 2, 1, 1.0 + gap, 0.0)
    hc = solve_coefficients(hp)
    rep = build(hp.base_params(), 4, x0=0.0)
    if raises:
        with pytest.raises(Beta1Beta2MismatchError):
            check_homomorphism(rep, hc, hp)
    else:
        assert check_homomorphism(rep, hc, hp).entries


def test_residual_rejects_a_cut_block(rep8, solved):
    # The antipode closure target for g = 1 is eps(1) on every level; one
    # cut to dim - 1 levels must be refused, not compared on the first dim - 1.
    # S(1) = 1, so m(id (x) S)D(1) is the product of the two sites of D(1).
    _, hc = solved
    ops, delta, eps, _ = hopf._symbols(rep8, hc)
    m_id_s = tensor_blocks([(t, (ops[s1] @ ops[s2],)) for t, (s1, s2) in delta["1"]], rep8.dim)
    target = [eps["1"]] * rep8.dim
    closure = check_antipode(hc, rep8).metadata["axiom_closure"]["1"]
    assert hopf._residual(m_id_s, {(0,): target}) == closure
    with pytest.raises(ValueError, match="entries"):
        hopf._residual(m_id_s, {(0,): target[:-1]})
    with pytest.raises(ValueError, match="entries"):
        hopf._residual({(0,): target[:-1]}, m_id_s)


@pytest.mark.parametrize("p, q, alpha, beta1, beta2", [
    (2, 3, 1, 0.7, 0.7),
    (2, 3, 0.5, 0.7, 0.7),
    (0.5, 3, 2, 1.0, 0.0),
], ids=["alpha-1", "alpha-0.5", "alpha-2"])
def test_coproduct_of_a_factor_is_the_factor_of_the_coproduct_of_N(p, q, alpha, beta1, beta2):
    # D(G) = base^(s gamma) G (x) G must equal G(D(N)) = base^(s D(N)) entry
    # by entry: the factors and D(N) read one number operator at every alpha
    hp = validate_hopf(p, q, alpha, 1, beta1, beta2)
    hc = solve_coefficients(hp)
    rep = build(hp.base_params(), 8, x0=0.0)
    ops, delta, _, factors = hopf._symbols(rep, hc)

    def two_site(terms):
        (block,) = tensor_blocks([(t, (ops[s1], ops[s2])) for t, (s1, s2) in terms], 8).values()
        return block

    delta_n = two_site(delta["N"])
    for f, (_, ln, s) in factors.items():
        want = [math.exp(s * ln * x) for x in delta_n]
        gap = max(abs(u - v) / v for u, v in zip(two_site(delta[f]), want))
        assert gap <= 1e-13, (f, gap)


def test_homomorphism_transport_gap():
    # beta1 - beta2 = l with real gamma needs alpha far from 1; there the
    # cross terms no longer cancel, so the transported relation does not
    # close and the check must report a large residual
    hp = validate_hopf(0.5, 3, 2, 1, 1.0, 0.0)
    hc = solve_coefficients(hp)
    rep = build(hp.base_params(), 10, x0=0.0)
    report = check_homomorphism(rep, hc, hp, tol=1e-9)
    assert not report.passed
    assert report.max_residual() > 1e-2


def test_homomorphism_needs_an_interior_level():
    # at dims 1 and 2 no level is left to compare, so even the transport
    # case, which fails from dim 4 on, would read residual 0
    hp = validate_hopf(0.5, 3, 2, 1, 1.0, 0.0)
    hc = solve_coefficients(hp)
    assert check_homomorphism(build(hp.base_params(), 3, x0=0.0), hc, hp).metadata["dim"] == 3
    for dim in (1, 2):
        with pytest.raises(ValueError):
            check_homomorphism(build(hp.base_params(), dim, x0=0.0), hc, hp)


def test_homomorphism_rejects_mismatched_rep(solved):
    hp = validate_hopf(0.5, 3, 2, 1, 1.0, 0.0)
    hc = solve_coefficients(hp)
    other_rep = build(validate_hopf(2, 3, 2, 1, 1.0, 0.0).base_params(), 8, x0=0.0)
    with pytest.raises(ValueError):
        check_homomorphism(other_rep, hc, hp)


def _transport_point():
    hp = validate_hopf(0.5, 3, 2, 1, 1.0, 0.0)  # beta1 - beta2 = l: all four checks run
    return hp, solve_coefficients(hp)


def _four_checks(rep, hc, hp):
    return {
        "coassoc": lambda: check_coassociativity(rep, hc),
        "counit": lambda: check_counit(hc, rep),
        "antipode": lambda: check_antipode(hc, rep),
        "hom": lambda: check_homomorphism(rep, hc, hp),
    }


def test_checks_on_one_rep_share_one_symbols_build():
    hp, hc = _transport_point()
    checks = _four_checks(build(hp.base_params(), 8, x0=0.0), hc, hp)
    fresh = {k: check().to_json() for k, check in checks.items()}
    for order in (["coassoc", "counit", "antipode", "hom"], ["hom", "antipode", "counit", "coassoc"]):
        rep = build(hp.base_params(), 8, x0=0.0)
        twin = build(hp.base_params(), 8, x0=0.0)
        seen = (rep == twin, repr(rep), rep._asdict())
        checks = _four_checks(rep, hc, hp)
        for key in order + order:
            assert checks[key]().to_json() == fresh[key], key
        assert (rep == twin, repr(rep), rep._asdict()) == seen
        assert "_symbols" in vars(rep) and "_symbols" not in vars(rep._replace())
    rep = build(hp.base_params(), 8, x0=0.0)
    assert hopf._symbols(rep, hc) is hopf._symbols(rep, hc)


def test_a_replaced_hc_on_the_same_rep_is_rebuilt():
    hp, hc = _transport_point()
    rep = build(hp.base_params(), 8, x0=0.0)
    bad = replace(hc, c1=hc.c1 * 1.01)
    for check in _four_checks(rep, hc, hp).values():
        check()
    got = {k: check().to_json() for k, check in _four_checks(rep, bad, hp).items()}
    fresh = build(hp.base_params(), 8, x0=0.0)
    assert got == {k: check().to_json() for k, check in _four_checks(fresh, bad, hp).items()}
    assert got["coassoc"] != check_coassociativity(rep, hc).to_json()


def test_a_failed_symbols_build_is_not_kept(rep8, solved):
    _, hc = solved
    bad = replace(hc, alpha1=hc.alpha1 * 300)
    messages = []
    for _ in range(2):
        with pytest.raises(ExponentOverflowError) as err:
            hopf._symbols(rep8, bad)
        messages.append(str(err.value))
        assert "_symbols" not in vars(rep8)
    assert messages[0] == messages[1]


def test_coefficients_as_dict_holds_the_fields_alone():
    hp, hc = _transport_point()
    rep = build(hp.base_params(), 8, x0=0.0)
    for check in _four_checks(rep, hc, hp).values():
        check()
    check_constraints(hc, hp)
    object.__setattr__(hc, "_extra", 0.0)  # an instance attribute never reaches the JSON
    assert list(hc.as_dict()) == list(hc.__dataclass_fields__)
