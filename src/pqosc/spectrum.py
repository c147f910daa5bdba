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
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING

from .params import DeformationParams, dual
from .report import CheckEntry, CheckReport
from .structure import bracket

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
        spread = 0.0
        for _, main, fq, fp in self.rows:
            scale = 1.0 + abs(main)
            spread = max(spread, abs(main - fq) / scale, abs(main - fp) / scale)
        return spread


def spectrum_table(params: DeformationParams, n_max: int) -> SpectrumTable:
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    rows = []
    for n in range(n_max + 1):
        main, fq, fp = lambda_forms(n, params)
        rows.append((n, main, fq, fp))
    table = SpectrumTable(params, tuple(rows))
    if table.max_form_spread() > 1e-11:
        raise ArithmeticError(
            f"closed-form spread {table.max_form_spread():.3e} exceeds 1e-11; "
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
    worst = 0.0
    for n in range(n_max + 1):
        lam = lambda_n(n, params)
        lam_dual = lambda_n(n, other)
        worst = max(worst, abs(lam - lam_dual) / (1.0 + abs(lam)))
    entries = (CheckEntry("pq-inversion", worst, tol),)
    metadata = {"params": params.as_dict(), "n_max": n_max, "scaling": "1 + |lambda_n|"}
    return CheckReport("spectrum-duality", entries, metadata)
