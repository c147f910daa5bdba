import math

import numpy as np
import pytest

from pqosc import (
    SpectrumTable,
    check_pq_inversion,
    dual,
    hamiltonian_eigs,
    lambda_forms,
    lambda_n,
    spectrum_table,
    validate,
)
from pqosc.fock import build

import dense_oracle

P_GRID = (0.5, 1.5, 2.0)
Q_GRID = (0.3, 0.9, 3.0)


def test_lambda_fixture_values(base_params):
    assert lambda_n(0, base_params) == pytest.approx(1.0, rel=1e-14)
    assert lambda_n(1, base_params) == pytest.approx(4.5, rel=1e-14)
    assert lambda_n(2, base_params) == pytest.approx(14.25, rel=1e-14)


def test_lambda_forms_fixture(base_params):
    main, fq, fp = lambda_forms(1, base_params)
    # 2^-1 + (3+1)*1 and 3 + (0.5+1)*1 both give 4.5
    assert main == pytest.approx(4.5, rel=1e-14)
    assert fq == pytest.approx(4.5, rel=1e-14)
    assert fp == pytest.approx(4.5, rel=1e-14)


def test_three_forms_agree_on_grid():
    for p in P_GRID:
        for q in Q_GRID:
            for alpha in (0.5, 1.0, 2.0):
                for l in (0.5, 1.0, 2.0):
                    params = validate(p, q, alpha, 0.0, l)
                    for i in range(-10, 21):
                        main, fq, fp = lambda_forms(i, params)
                        scale = 1.0 + abs(main)
                        assert abs(main - fq) <= 1e-11 * scale
                        assert abs(main - fp) <= 1e-11 * scale


def test_duality_of_spectrum():
    params = validate(0.7, 1.9, 2.0, 0.3, 0.5)
    other = dual(params)
    for n in range(21):
        a, b = lambda_n(n, params), lambda_n(n, other)
        assert abs(a - b) <= 1e-11 * (1 + abs(a))


def test_check_pq_inversion_reports(base_params):
    report = check_pq_inversion(base_params, n_max=20, tol=1e-11)
    assert report.passed
    report2 = check_pq_inversion(validate(2, 2, 1, 0, 1), n_max=5, tol=1e-11)
    assert report2.passed


def test_hamiltonian_eigs_fixture(base_params):
    rep = build(base_params, dim=4)
    eigs = hamiltonian_eigs(rep)
    assert eigs == pytest.approx([1.0, 4.5, 14.25], rel=1e-13)


def test_hamiltonian_eigs_equal_weight_sums(base_params):
    rep = build(base_params, dim=12)
    eigs = hamiltonian_eigs(rep)
    assert np.array_equal(eigs, np.asarray(rep.weights)[:11] + np.asarray(rep.weights)[1:12])


def test_hamiltonian_eigs_match_matrix_diagonal(base_params):
    rep = build(base_params, dim=12)
    a, a_dag = (dense_oracle.matrix(rep.generator(s)) for s in ("a", "a+"))
    h = a_dag @ a + a @ a_dag
    diag = np.diag(h)[:11]
    scale = float(np.max(np.abs(rep.weights)))
    assert np.max(np.abs(diag - hamiltonian_eigs(rep))) <= 1e-13 * scale


def test_alignment_with_closed_form():
    # index alignment requires alpha = l and beta = 0
    for alpha in (0.5, 1.0, 2.0):
        params = validate(2, 3, alpha, 0.0, alpha)
        rep = build(params, dim=10, x0=0.0)
        eigs = hamiltonian_eigs(rep)
        for k, value in enumerate(eigs):
            lam = lambda_n(k, params)
            assert abs(value - lam) <= 1e-12 * (1 + abs(lam))


def test_dual_rep_same_hamiltonian(base_params):
    rep = build(base_params, dim=10)
    rep_dual = build(dual(base_params), dim=10)
    a, b = np.asarray(hamiltonian_eigs(rep)), np.asarray(hamiltonian_eigs(rep_dual))
    assert np.all(np.abs(a - b) <= 1e-12 * (1 + np.abs(a)))


def test_spectrum_is_increasing_on_fixture(base_params):
    eigs = hamiltonian_eigs(build(base_params, dim=16))
    assert np.all(np.diff(eigs) > 0)


def test_spectrum_table_rows(base_params):
    table = spectrum_table(base_params, n_max=5)
    assert [row[0] for row in table.rows] == list(range(6))
    assert table.max_form_spread() <= 1e-11
    with pytest.raises(ValueError):
        spectrum_table(base_params, n_max=-1)


def test_check_pq_inversion_needs_a_level(base_params):
    assert check_pq_inversion(base_params, n_max=0).entries[0].residual == 0.0
    with pytest.raises(ValueError):
        check_pq_inversion(base_params, n_max=-1)


def test_negative_levels_admitted(base_params):
    main, fq, fp = lambda_forms(-3, base_params)
    assert main == pytest.approx(fq, rel=1e-12)
    assert main == pytest.approx(fp, rel=1e-12)


# (p, q, alpha, beta, l): the fixture, alpha != l, negative alpha, beta != 0,
# and a point next to the singular surface
LATTICE_POINTS = [
    (2.0, 3.0, 1.0, 0.0, 1.0),
    (0.5, 3.0, 2.0, 0.3, 0.5),
    (0.7, 1.9, -1.5, 0.3, 0.5),
    (1.5, 0.9, 0.5, -2.0, 2.0),
    (2.0, (1.0 + 1e-11) / 2.0, 1.0, 0.0, 1.0),
]


def outcome(fn):
    """repr of fn(), or the type and message of the ArithmeticError it raised."""
    try:
        return repr(fn())
    except ArithmeticError as exc:
        return type(exc).__name__, str(exc)


def per_level_inversion(params, n_max):
    """check_pq_inversion's residual as a loop of lambda_n over the levels."""
    other = dual(params)
    worst = 0.0
    for n in range(n_max + 1):
        lam = lambda_n(n, params)
        worst = max(worst, abs(lam - lambda_n(n, other)) / (1.0 + abs(lam)))
    return worst


@pytest.mark.parametrize("point", LATTICE_POINTS)
def test_lattice_spectrum_equals_the_per_level_forms(point):
    params = validate(*point)
    table = spectrum_table(params, 60)
    assert repr(table.rows) == repr(tuple((n, *lambda_forms(n, params)) for n in range(61)))
    got = check_pq_inversion(params, 60).entries[0].residual
    assert repr(got) == repr(per_level_inversion(params, 60))


@pytest.mark.parametrize("point", [
    (2.0, 3.0, 1.0, 0.0, 1.0),
    (2.0, 3.0, 1.3, 0.2, 0.7),
    (3.0, 2.0, -0.6, 0.0, 1.1),
    (3.0, 0.5, 1.0, 0.0, 300.0),
    (2.0, 0.5000000005, -1.0, -1000.0, 0.01),  # a value leaves the double range first
    # the dual's guard fails first, at x = 203 (level 202), and params' at x = 204
    (1.0001, 31.446128080475482, 1.0, 0.0, 1.0),
])
@pytest.mark.parametrize("n_max", [300, 700])
def test_lattice_spectrum_raises_what_the_per_level_loop_raises(point, n_max):
    params = validate(*point)
    assert outcome(lambda: spectrum_table(params, n_max).rows) == outcome(
        lambda: tuple((n, *lambda_forms(n, params)) for n in range(n_max + 1))
    )
    assert outcome(lambda: check_pq_inversion(params, n_max).entries[0].residual) == outcome(
        lambda: per_level_inversion(params, n_max)
    )


def test_a_level_that_overflows_fails():
    # bracket(x) and bracket(x + l) are finite, their sum lambda_0 is -inf
    params = validate(2.0, 0.5000000005, 1.0, -1007.36, 0.01)
    report = check_pq_inversion(params, 0)
    assert math.isnan(report.entries[0].residual)
    assert not report.passed
    with pytest.raises(ArithmeticError, match="spread nan"):
        spectrum_table(params, 0)
    table = SpectrumTable(params, ((0, -math.inf, -math.inf, -math.inf),))
    assert math.isnan(table.max_form_spread())


def hexes(table):
    return [(n, *(v.hex() for v in vals)) for n, *vals in table.rows]


@pytest.mark.parametrize("point", LATTICE_POINTS)
@pytest.mark.parametrize("table_first", [True, False])
def test_the_level_memo_gives_fresh_results(point, table_first):
    params = validate(*point)
    if table_first:
        table = spectrum_table(params, 20)
        report = check_pq_inversion(params, 10)
    else:
        report = check_pq_inversion(params, 10)
        table = spectrum_table(params, 20)
    assert hexes(table) == hexes(spectrum_table(validate(*point), 20))
    want = check_pq_inversion(validate(*point), 10)
    assert report.entries[0].residual.hex() == want.entries[0].residual.hex()
    assert report == want
    # the same n_max again reads the memo, and gives the same results
    assert hexes(spectrum_table(params, 20)) == hexes(table)
    assert check_pq_inversion(params, 10) == want


def test_the_level_memo_leaves_the_fields_alone():
    params = validate(0.7, 1.9, -1.5, 0.3, 0.5)
    twin = validate(0.7, 1.9, -1.5, 0.3, 0.5)
    seen = (params == twin, hash(params), repr(params), params.as_dict())
    spectrum_table(params, 20)
    assert "_level_brackets" in vars(params) and "_level_brackets" not in vars(twin)
    assert (params == twin, hash(params), repr(params), params.as_dict()) == seen
    for other in (params._replace(p=1.5), params._replace(), dual(params), dual(dual(params))):
        assert "_level_brackets" not in vars(other)
    replaced = params._replace(q=2.5)
    assert hexes(spectrum_table(replaced, 20)) == hexes(
        spectrum_table(validate(0.7, 2.5, -1.5, 0.3, 0.5), 20)
    )
