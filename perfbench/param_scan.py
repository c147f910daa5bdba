"""param_scan: the scalar and single-site layers across the parameter grid.

Every pass sweeps the acceptance grid p x q x alpha x l (81 points, beta = 0)
and runs, per point, the structure function, the truncated representation
(build, grading relations, literal-mode negative at alpha = 2, a+a on basis
states), the spectrum and its duality, the difference-operator realization,
the scalar Hopf solve, and report serialization.  No tensor products: a
change to the dense Hopf path must leave this workload unmoved.

Dims run from 16 up to 146, the largest dim EXP_LIMIT = 700 admits across
the grid (literal mode at alpha = l = 2, q = 0.3 needs 4 k |ln 0.3| <= 700
for every level k < dim).  Each dim is used by 9 points per pass; the seed
decides which, the Hopf offsets and the basis states.  The points run in
grid order, so the pass costs the same, and leaves the same memory, on
every seed.

A fixed band of points approaching the singular surface, |pq - 1| = 1e-2
down to 1e-11 at p = 2, alpha = l = 1, dim 16, runs the bracket-dependent
checks.  `structure.bracket` forms p**-x - q**x by subtraction and cancels
there; the band points from 1e-5 down fail today and are counted as failed
(expect_fail).  The band does not depend on the seed, so the failed share
is the same in every run.
"""

from __future__ import annotations

import random
from itertools import product

import numpy as np

import pqosc
from pqosc import calculus, fock, hopf, spectrum, structure

import oracle
from harness import Checks, Op, call, check_serialized, rel_err, scaled_err, serialize

# Times are scaled to the reference speed (speed.py): this work is
# interpreter-bound, and the kernel follows it.
SCALED = True
P_GRID = (0.5, 1.5, 2.0)
Q_GRID = (0.3, 0.9, 3.0)
ALPHA_GRID = (0.5, 1.0, 2.0)
L_GRID = (0.5, 1.0, 2.0)
DIMS = (16, 32, 48, 64, 80, 96, 112, 128, 146)
EXPONENTS = tuple(float(e) for e in range(-3, 6))
BASIS_STATES = 4

BAND_P = 2.0
BAND_DIM = 16
BAND = tuple(10.0 ** -e for e in range(2, 12))
# The band points the bracket's cancellation breaks today (|pq - 1| <= 1e-5).
BAND_FAILING = frozenset(10.0 ** -e for e in range(5, 12))

# Dense products per check_relations call (a a+, a+ a twice each, the two
# projections, and the two commutators), 2 dim**3 flops each.
RELATION_FLOPS = 20
# a+ a applied to a vector: two dense matvecs, 2 dim**2 flops each.
WORD_FLOPS = 4

# Tolerances: the acceptance suite's (criteria 1-4, 6) where one exists.
TOL_F = 1e-10
TOL_SPECTRUM = 1e-11
TOL_GAMMA = 1e-12


class Case:
    """One point of the scan: its inputs, references and program calls."""

    def __init__(self, p, q, alpha, l, dim, beta_hopf, states, with_hopf=True):
        self.p, self.q, self.alpha, self.l, self.dim = p, q, alpha, l, dim
        self.beta_hopf = beta_hopf
        self.states = states
        self.with_hopf = with_hopf
        self.name = f"p={p:g} q={q!r} alpha={alpha:g} l={l:g} dim={dim}"

    def references(self) -> None:
        b = oracle.Bracket(self.p, self.q, self.l)
        n_range = range(self.dim + 1)
        self.ref_f = [float(b.f(n, self.alpha, 0.0)) for n in n_range]
        self.ref_w = [float(b(self.l * k)) for k in range(self.dim)]
        self.ref_lam = [float(b.lam(n, self.alpha, 0.0)) for n in n_range]
        if self.with_hopf:
            self.ref_gamma = float(
                oracle.gamma(self.p, self.q, self.alpha, self.l, self.beta_hopf, self.beta_hopf)
            )

    def run(self, tr) -> dict:
        out = {}
        params = pqosc.validate(self.p, self.q, self.alpha, 0.0, self.l)
        dim = self.dim
        out["f"] = call(tr, "structure.f_general", _f_table, params, dim, evals=dim + 1)
        rep = out["rep"] = call(tr, "fock.build", fock.build, params, dim, builds=1)
        if not isinstance(rep, Exception):
            tol = 1e-11 * float(np.max(np.abs(rep.weights)))
            out["grading"] = call(
                tr, "fock.check_relations", fock.check_relations, rep, "grading", tol,
                relation_checks=1, flops=RELATION_FLOPS * dim**3,
            )
            if self.alpha == 2.0:
                out["literal"] = call(
                    tr, "fock.check_relations", fock.check_relations, rep, "literal", 1e-2,
                    relation_checks=1, flops=RELATION_FLOPS * dim**3,
                )
            out["words"] = call(
                tr, "fock.apply_word", _words, rep, self.states,
                flops=WORD_FLOPS * dim**2 * len(self.states),
            )
        out["table"] = call(
            tr, "spectrum.spectrum_table", spectrum.spectrum_table, params, dim, levels=dim + 1
        )
        out["dual"] = call(
            tr, "spectrum.check_pq_inversion", spectrum.check_pq_inversion, params, dim,
            levels=dim + 1,
        )
        out["realization"] = call(
            tr, "calculus.check_realization", calculus.check_realization, params, EXPONENTS,
            monomials=len(EXPONENTS),
        )
        if self.with_hopf:
            b = self.beta_hopf
            hp = hopf.validate_hopf(self.p, self.q, self.alpha, self.l, b, b)
            hc = out["hc"] = call(tr, "hopf.solve_coefficients", hopf.solve_coefficients, hp)
            if not isinstance(hc, Exception):
                out["constraints"] = call(
                    tr, "hopf.check_constraints", hopf.check_constraints, hc, hp
                )
        serialize(tr, out)
        return out

    def check(self, out: dict) -> list:
        c = Checks()
        f = c.value("structure.f_general", out["f"])
        if f is not None:
            c.within("f(n) vs reference", max(map(rel_err, f, self.ref_f)), TOL_F)
        rep = c.value("fock.build", out["rep"])
        if rep is not None:
            grading = c.value("check_relations grading", out["grading"])
            if grading is not None:
                residual = grading.max_residual()
                c.expect(grading.passed, f"grading relations: residual {residual:.3g}")
            if self.alpha == 2.0:
                literal = c.value("check_relations literal", out["literal"])
                if literal is not None:
                    c.expect(
                        not literal.passed and literal.max_residual() > 1e-2,
                        "literal mode at alpha = 2 did not fail",
                    )
            words = c.value("apply_word", out["words"])
            if words is not None:
                for k, vec in zip(self.states, words):
                    c.within(f"a+a|{k}> vs w_{k}", rel_err(vec[k], self.ref_w[k]), TOL_F)
                    c.expect(np.count_nonzero(vec) <= 1, f"a+a|{k}> leaves level {k}")
        table = c.value("spectrum_table", out["table"])
        if table is not None:
            errs = [scaled_err(row[1], want) for row, want in zip(table.rows, self.ref_lam)]
            c.within("lambda_n vs reference", max(errs), TOL_SPECTRUM)
            c.expect(len(table.rows) == self.dim + 1, "spectrum_table row count")
        dual = c.value("check_pq_inversion", out["dual"])
        if dual is not None:
            c.expect(dual.passed, f"pq inversion: residual {dual.max_residual():.3g}")
        real = c.value("check_realization", out["realization"])
        if real is not None:
            c.expect(real.passed, f"difference realization: residual {real.max_residual():.3g}")
        if self.with_hopf:
            hc = c.value("solve_coefficients", out["hc"])
            if hc is not None:
                c.within("gamma vs reference", rel_err(hc.gamma, self.ref_gamma), TOL_GAMMA)
                cons = c.value("check_constraints", out["constraints"])
                if cons is not None:
                    c.expect(cons.passed, f"hopf constraints: residual {cons.max_residual():.3g}")
        check_serialized(c, out)
        return c.problems


def _f_table(params, dim):
    return [structure.f_general(n, params) for n in range(dim + 1)]


def _words(rep, states):
    out = []
    for k in states:
        e = np.zeros(rep.dim)
        e[k] = 1.0
        out.append(fock.apply_word(rep, ["a+", "a"], e))
    return out


def _op(case: Case, expect_fail=False) -> Op:
    return Op(case.name, case.run, case.check, expect_fail)


def _band_case(delta: float) -> Case:
    q = (1.0 + delta) / BAND_P
    states = (1, BAND_DIM // 2, BAND_DIM - 1)
    return Case(BAND_P, q, 1.0, 1.0, BAND_DIM, 0.0, states, with_hopf=False)


def _grid_case(rng, p, q, alpha, l, dim) -> Op:
    states = tuple(rng.sample(range(dim), BASIS_STATES))
    case = Case(p, q, alpha, l, dim, round(rng.uniform(0.0, 2.0), 3), states)
    case.references()
    return _op(case)


def build(seed: int) -> list:
    """The pass's operations for this seed, references computed."""
    rng = random.Random(seed)
    ops = []
    for alpha in ALPHA_GRID:
        # Literal mode runs at alpha = 2 only, so each alpha gets every dim
        # equally often: the pass's cost does not depend on the seed.
        points = list(product(P_GRID, Q_GRID, L_GRID))
        dims = rng.sample(DIMS * (len(points) // len(DIMS)), len(points))
        for (p, q, l), dim in zip(points, dims):
            ops.append(_grid_case(rng, p, q, alpha, l, dim))
    for delta in BAND:
        case = _band_case(delta)
        case.references()
        ops.append(_op(case, expect_fail=delta in BAND_FAILING))
    return ops


def warmup() -> list:
    """Fixed small inputs, one of each kind of operation."""
    return [
        _op(Case(2.0, 3.0, 2.0, 1.0, 16, 0.7, (1, 2, 3))),
        _op(_band_case(1e-3)),
    ]
