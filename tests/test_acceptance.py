"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import csv
import io
import time
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from pqosc import (
    GammaUndefinedError,
    check_antipode,
    check_coassociativity,
    check_constraints,
    check_counit,
    check_homomorphism,
    check_pq_inversion,
    check_realization,
    check_relations,
    dual,
    f_general,
    hamiltonian_eigs,
    lambda_forms,
    lambda_n,
    pq_sum_oracle,
    solve_coefficients,
    validate,
    validate_hopf,
)
from pqosc.cli import run
from pqosc.fock import build

P_GRID = (0.5, 1.5, 2.0)
Q_GRID = (0.3, 0.9, 3.0)
ALPHA_GRID = (0.5, 1.0, 2.0)
L_GRID = (0.5, 1.0, 2.0)


def pq_points():
    return [(p, q) for p in P_GRID for q in Q_GRID if abs(p * q - 1.0) > 1e-9]


def report_line(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for p, q in pq_points():
        params = validate(p, q, 1.0, 0.0, 1.0)
        for n in range(26):
            want = pq_sum_oracle(n, p, q)
            dev = abs(f_general(n, params) - want) / (1.0 + abs(want))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report_line(1, "oracle equivalence", ok, f"max rel dev {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_fock_relations():
    start = time.perf_counter()
    worst_scaled = 0.0
    for (p, q), alpha, l in product(pq_points(), ALPHA_GRID, L_GRID):
        params = validate(p, q, alpha, 0.0, l)
        rep = build(params, dim=16)
        maxweight = float(np.max(np.abs(rep.weights)))
        report = check_relations(rep, "grading", tol=1e-11 * maxweight)
        assert report.passed, f"grading relations failed at {params}"
        worst_scaled = max(worst_scaled, report.max_residual() / maxweight)

    min_negative = float("inf")
    for (p, q), l in product(pq_points(), L_GRID):
        params = validate(p, q, 2.0, 0.0, l)
        rep = build(params, dim=16)
        report = check_relations(rep, "literal", tol=1e-2)
        assert not report.passed, f"literal mode unexpectedly passed at {params}"
        min_negative = min(min_negative, report.max_residual())
    elapsed = time.perf_counter() - start
    ok = worst_scaled <= 1e-11 and min_negative > 1e-2 and elapsed < 5.0
    report_line(
        2,
        "fock relations (grading) + literal negative",
        ok,
        f"max scaled residual {worst_scaled:.3e}, literal min residual {min_negative:.3e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_3_difference_realization():
    start = time.perf_counter()
    exponents = [float(e) for e in range(-3, 6)]
    worst = 0.0
    for (p, q), alpha, l in product(pq_points(), ALPHA_GRID, L_GRID):
        params = validate(p, q, alpha, 0.0, l)
        report = check_realization(params, exponents, tol=1e-12)
        assert report.passed, f"realization failed at {params}"
        worst = max(worst, report.max_residual())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report_line(3, "difference-operator realization", ok, f"max residual {worst:.3e}, {elapsed:.2f}s")


def test_criterion_4_spectrum_identities():
    start = time.perf_counter()
    worst_forms = 0.0
    worst_dual = 0.0
    for (p, q), alpha, l in product(pq_points(), ALPHA_GRID, L_GRID):
        params = validate(p, q, alpha, 0.0, l)
        other = dual(params)
        for n in range(21):
            main, fq, fp = lambda_forms(n, params)
            scale = 1.0 + abs(main)
            worst_forms = max(worst_forms, abs(main - fq) / scale, abs(main - fp) / scale)
            worst_dual = max(worst_dual, abs(main - lambda_n(n, other)) / scale)
        assert check_pq_inversion(params, 20, tol=1e-11).passed
    elapsed = time.perf_counter() - start
    ok = worst_forms <= 1e-11 and worst_dual <= 1e-11 and elapsed < 1.0
    report_line(
        4,
        "spectrum three forms + duality",
        ok,
        f"forms {worst_forms:.3e}, duality {worst_dual:.3e}, {elapsed:.2f}s",
    )


def test_criterion_5_matrix_formula_agreement():
    start = time.perf_counter()
    worst = 0.0
    exact = True
    for (p, q), alpha in product(pq_points(), ALPHA_GRID):
        params = validate(p, q, alpha, 0.0, alpha)  # alignment regime alpha = l
        rep = build(params, dim=12, x0=0.0)
        eigs = hamiltonian_eigs(rep)
        exact &= np.array_equal(eigs, np.asarray(rep.weights)[:11] + np.asarray(rep.weights)[1:12])
        for k, value in enumerate(eigs):
            lam = lambda_n(k, params)
            worst = max(worst, abs(value - lam) / (1.0 + abs(lam)))
    elapsed = time.perf_counter() - start
    ok = exact and worst <= 1e-12
    report_line(
        5,
        "matrix vs closed-form spectrum (alpha = l)",
        ok,
        f"weight sums exact: {exact}, max rel dev {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_6_hopf_closure():
    start = time.perf_counter()
    dim = 10

    # Solvable configurations (equal offsets give R = (p*q)**beta > 0) carry
    # the constraint-closure, coassociativity, counit, and antipode clauses.
    worst = {"constraints": 0.0, "coassoc": 0.0, "counit": 0.0, "antipode": 0.0, "gap": 0.0}
    solved_points = 0
    for p, q in pq_points():
        hp = validate_hopf(p, q, 1.0, 1.0, 0.7, 0.7)
        hc = solve_coefficients(hp)
        solved_points += 1
        rep = build(hp.base_params(), dim, x0=0.0)

        constraints = check_constraints(hc, hp, tol=1e-12)
        assert constraints.passed, f"constraints failed at p={p}, q={q}"
        worst["constraints"] = max(worst["constraints"], constraints.max_residual())

        coassoc = check_coassociativity(rep, hc, tol=1e-9)
        assert coassoc.passed, f"coassociativity failed at p={p}, q={q}"
        worst["coassoc"] = max(worst["coassoc"], coassoc.max_residual())

        counit = check_counit(hc, rep, tol=1e-12)
        assert counit.passed, f"counit failed at p={p}, q={q}"
        worst["counit"] = max(worst["counit"], counit.max_residual())

        antipode = check_antipode(hc, rep, tol=1e-10)
        assert antipode.passed, f"antipode mutual equality failed at p={p}, q={q}"
        worst["antipode"] = max(worst["antipode"], antipode.max_residual())

        gap = antipode.metadata["axiom_closure"]["N"]
        worst["gap"] = max(worst["gap"], abs(gap - 2.0 * abs(hc.gamma)))

    # Oscillator-offset configurations (beta1 - beta2 = l): the homomorphism
    # clause applies to grid points with R > 0.  At alpha = 1, A is the
    # geometric mean of p**-l and q**l, so R < 0 at every point and the
    # clause is vacuous under its own filter; the solver must say so by
    # raising GammaUndefined rather than silently continuing.
    qualifying = 0
    for p, q in pq_points():
        hp = validate_hopf(p, q, 1.0, 1.0, 1.0, 0.0)
        try:
            hc = solve_coefficients(hp)
        except GammaUndefinedError:
            continue
        qualifying += 1
        rep = build(hp.base_params(), dim, x0=0.0)
        hom = check_homomorphism(rep, hc, hp, tol=1e-9)
        assert hom.passed, f"homomorphism failed at qualifying point p={p}, q={q}"

    elapsed = time.perf_counter() - start
    ok = (
        worst["constraints"] <= 1e-12
        and worst["coassoc"] <= 1e-9
        and worst["counit"] <= 1e-12
        and worst["antipode"] <= 1e-10
        and worst["gap"] <= 1e-12
        and solved_points == len(pq_points())
        and elapsed < 30.0
    )
    report_line(
        6,
        "hopf constraint closure",
        ok,
        f"constraints {worst['constraints']:.1e}, coassoc {worst['coassoc']:.1e}, "
        f"counit {worst['counit']:.1e}, antipode {worst['antipode']:.1e}, "
        f"N-gap dev {worst['gap']:.1e}, homomorphism points with R>0: {qualifying}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_7_negative_tests():
    start = time.perf_counter()
    hp = validate_hopf(2.0, 3.0, 1.0, 1.0, 0.7, 0.7)
    hc = solve_coefficients(hp)
    rep = build(hp.base_params(), 6, x0=0.0)

    fields = [f"alpha{i}" for i in range(1, 5)] + ["A", "gamma"] + [f"c{i}" for i in range(1, 14)]
    weakest = float("inf")
    for field in fields:
        value = getattr(hc, field)
        bumped = value * 1.01 if value != 0.0 else 0.01
        perturbed = replace(hc, **{field: bumped})
        residuals = [check_constraints(perturbed, hp, tol=1e-12).max_residual()]
        residuals.append(check_coassociativity(rep, perturbed, tol=1e-10).max_residual())
        residuals.append(check_counit(perturbed, rep, tol=1e-12).max_residual())
        residuals.append(check_antipode(perturbed, rep, tol=1e-10).max_residual())
        strongest = max(residuals)
        weakest = min(weakest, strongest)
        assert strongest > 1e-3, f"perturbing {field} went undetected (max residual {strongest:.3e})"

    raised = False
    try:
        solve_coefficients(validate_hopf(2.0, 2.0, 1.0, 1.0, 1.0, 0.0))
    except GammaUndefinedError:
        raised = True

    elapsed = time.perf_counter() - start
    ok = weakest > 1e-3 and raised
    report_line(
        7,
        "1% perturbations detected + GammaUndefined at p = q",
        ok,
        f"weakest detection {weakest:.3e}, GammaUndefined raised: {raised}, {elapsed:.2f}s",
    )


def test_criterion_8_cli_contract(capsys):
    start = time.perf_counter()
    code_spectrum = run(
        ["spectrum", "--p", "2", "--q", "3", "--alpha", "1", "--beta", "0", "--l", "1",
         "--n-max", "2", "--format", "csv"]
    )
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    values = {int(r[0]): float(r[1]) for r in rows[1:]}
    table_ok = (
        abs(values[0] - 1.0) <= 1e-12
        and abs(values[1] - 4.5) <= 1e-12
        and abs(values[2] - 14.25) <= 1e-12
    )

    code_hopf = run(
        ["hopf-solve", "--p", "2", "--q", "2", "--beta1", "1", "--beta2", "0",
         "--alpha", "1", "--l", "1"]
    )
    err = capsys.readouterr().err
    hopf_ok = code_hopf == 3 and "GammaUndefined" in err

    code_literal = run(
        ["rep-check", "--p", "2", "--q", "3", "--alpha", "2", "--beta", "0", "--l", "1",
         "--mode", "literal"]
    )
    capsys.readouterr()

    elapsed = time.perf_counter() - start
    ok = code_spectrum == 0 and table_ok and hopf_ok and code_literal == 1
    with capsys.disabled():
        report_line(
            8,
            "CLI exit codes and spectrum table",
            ok,
            f"spectrum exit {code_spectrum}, table ok {table_ok}, hopf-solve exit {code_hopf}, "
            f"literal rep-check exit {code_literal}, {elapsed:.2f}s",
        )
