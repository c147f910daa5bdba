"""Closed-form spectrum of the deformed Hamiltonian H = a+ a + a a+.

With x = alpha*n + beta the level energies are

    lambda_n = bracket(x) + bracket(x + l),

and two algebraic rewrites follow from the bracket recurrences
bracket(x + l) = p**(-x) + q**l * bracket(x)
              = q**x    + p**(-l) * bracket(x):

    lambda_n = p**(-x) + (q**l + 1) * bracket(x)
    lambda_n = q**x    + (p**(-l) + 1) * bracket(x).

All three forms, and the invariance under p -> 1/q, q -> 1/p, are
verified numerically here; the truncated matrix representation provides
the independent cross-check through its diagonal Hamiltonian.

lambda_n and lambda_forms evaluate one level.  spectrum_table and
check_pq_inversion evaluate all levels 0..n_max at once: one
structure.brackets call evaluates the lattice x_n shifted by l, in the
order the per-level loop takes them, so every value, and the error a
level that leaves the double range raises, is the per-level loop's.
Their reductions keep NaN (report.peak), so a level that overflows
fails instead of dropping out of the maximum.

The level lattice of one DeformationParams is evaluated once per n_max:
_level_brackets keeps its last (n_max, xs, w) in the instance __dict__,
as params keeps bracket_constants, so check_pq_inversion after
spectrum_table on the same params evaluates only the dual lattice.  The
five fields cannot change, so the memo cannot go stale; ==, hash, repr
and as_dict do not see it, and _replace and dual make instances without
it.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING

from .params import DeformationParams, dual
from .report import CheckEntry, CheckReport, peak
from .structure import bracket, brackets

if TYPE_CHECKING:  # annotations only
    from .fock import FockRep


def lambda_n(n: float, params: DeformationParams) -> float:
    """Energy of level n from the closed form."""
    x = params.alpha * n + params.beta
    return bracket(x, params) + bracket(x + params.l, params)


def lambda_forms(n: float, params: DeformationParams) -> tuple[float, float, float]:
    """The level energy in its three algebraically equal forms."""
    x = params.alpha * n + params.beta
    w = bracket(x, params)
    main = w + bracket(x + params.l, params)
    form_q = params.p ** (-x) + (params.q ** params.l + 1.0) * w
    form_p = params.q ** x + (params.p ** (-params.l) + 1.0) * w
    return main, form_q, form_p


class SpectrumTable(namedtuple("SpectrumTable", "params rows")):
    """Energies lambda_n for n = 0..n_max with all three closed forms.

    `rows` holds one (n, main, form_q, form_p) tuple per level.
    """

    __slots__ = ()

    def max_form_spread(self) -> float:
        """Largest |main - form| / (1 + |main|); NaN if some level is NaN."""
        spreads = []
        for _, main, fq, fp in self.rows:
            scale = 1.0 + abs(main)
            spreads += (abs(main - fq) / scale, abs(main - fp) / scale)
        return peak(spreads)


def _level_brackets(params: DeformationParams, n_max: int) -> tuple[list, list]:
    """The x_n = alpha*n + beta of levels 0..n_max and their bracket(x_n), bracket(x_n + l).

    One structure.brackets lattice, shifted by l, so the values come in
    the per-level loop's order, x_n before x_n + l, and a failing level
    raises what lambda_n at that level raises.  The result is kept on
    params for its n_max (see the module docstring); callers only read it.
    """
    memo = params.__dict__.get("_level_brackets")
    if memo is not None and memo[0] == n_max:
        return memo[1], memo[2]
    xs, w = brackets(params.beta, params.alpha, n_max + 1, params, params.l)
    params.__dict__["_level_brackets"] = (n_max, xs, w)
    return xs, w


def spectrum_table(params: DeformationParams, n_max: int) -> SpectrumTable:
    """The rows of lambda_forms(n) for n = 0..n_max, from one bracket lattice.

    Raises ArithmeticError when the three forms disagree by more than
    1e-11, or a level is NaN: the evaluation left its reliable range.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    xs, w = _level_brackets(params, n_max)
    p, q, l = params.p, params.q, params.l
    ql1 = q ** l + 1.0
    pl1 = p ** (-l) + 1.0
    rows = tuple([
        (n, wn + wu, p ** (-x) + ql1 * wn, q ** x + pl1 * wn)
        for n, x, wn, wu in zip(range(n_max + 1), xs, w[0::2], w[1::2])
    ])
    table = SpectrumTable(params, rows)
    spread = table.max_form_spread()
    if not (spread <= 1e-11):
        raise ArithmeticError(
            f"closed-form spread {spread:.3e} exceeds 1e-11; "
            "the evaluation left its reliable range"
        )
    return table


def hamiltonian_eigs(rep: FockRep) -> tuple[float, ...]:
    """Diagonal of a+ a + a a+ on the truncation-safe interior levels.

    Level k of the interior (k <= dim-2) carries w_k + w_{k+1}; the sum
    is taken directly from the stored weights so the result is exact,
    while the literal matrix product reproduces it only to rounding in
    sqrt(w)**2.
    """
    w = rep.weights
    return tuple([w[k] + w[k + 1] for k in range(rep.dim - 1)])


def check_pq_inversion(params: DeformationParams, n_max: int, tol: float = 1e-11) -> CheckReport:
    """Spectrum invariance under p -> 1/q, q -> 1/p.

    Residuals are |lambda_n(params) - lambda_n(dual)| scaled by
    1 + |lambda_n|, reported as the maximum over n = 0..n_max.  Raises
    ValueError for n_max < 0, where no level would be compared.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    other = dual(params)
    try:
        _, w = _level_brackets(params, n_max)
        _, w_dual = _level_brackets(other, n_max)
    except ArithmeticError:
        # Raise what the per-level loop raises first: params, then dual, at each level.
        # ln(1/q) can round apart from -ln(q), so the dual's guard may fail a level first.
        for n in range(n_max + 1):
            lambda_n(n, params)
            lambda_n(n, other)
        raise
    # lambda_n = w(x_n) + w(x_n + l) on both lattices, compared in the same pass
    worst = peak([
        abs((lam := a + b) - (c + d)) / (1.0 + abs(lam))
        for a, b, c, d in zip(w[0::2], w[1::2], w_dual[0::2], w_dual[1::2])
    ])
    entries = (CheckEntry("pq-inversion", worst, tol),)
    metadata = {"params": params.as_dict(), "n_max": n_max, "scaling": "1 + |lambda_n|"}
    return CheckReport("spectrum-duality", entries, metadata)
