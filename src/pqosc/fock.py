"""Truncated matrix representations of the deformed ladder algebra.

The representation lives on basis levels k = 0 .. dim-1.  The number
operator is N = diag(nu0 + l*k), the grading lattice is x_k = x0 + l*k,
and the ladder weights are w_k = bracket(x_k), so that

    a |k> = sqrt(w_k) |k-1>,      a+ |k> = sqrt(w_{k+1}) |k+1>,
    a+ a  = diag(w_k),            a a+   = diag(w_{k+1})  (interior).

Because bracket(x + l) - q**l * bracket(x) = p**(-x) identically, the
twisted relations

    a a+ - q**l  a+ a = P,        a a+ - p**(-l) a+ a = Q

hold exactly on the interior when P, Q are read as the grading diagonals
diag(p**(-x_k)), diag(q**(x_k)) ("grading" mode).  Reading them instead
as literal functions of N's eigenvalues ("literal" mode) agrees with the
grading only at alpha = 1; for alpha != 1 literal mode is a documented
negative case.  Truncation from below requires w_0 = 0, i.e. x0 = 0.

Every generator has exactly one nonzero diagonal, so each is stored as
a weighted shift: an (offset, weights) pair acting as
|k> -> weights[k] |k + offset>.  Products of shifts are shifts, and the
relation residuals and apply_word cost O(dim).  Dense matrices are built
only on request, for display and tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .params import (
    DeformationParams,
    DimensionMismatchError,
    FockError,
    NegativeWeightError,
    NotLowestWeightError,
)
from .report import CheckEntry, CheckReport
from .structure import bracket, checked_exp

_LOWEST_WEIGHT_TOL = 1e-12
_NEGATIVE_WEIGHT_TOL = 1e-14


def shift_levels(w: np.ndarray, offsets: Sequence[int]) -> np.ndarray:
    """out[k] = w[k + offsets], one offset per axis, zero where k + offsets leaves w."""
    out = np.zeros_like(w)
    src, dst = [], []
    for off, n in zip(offsets, w.shape):
        if abs(off) >= n:
            return out
        src.append(slice(max(off, 0), n + min(off, 0)))
        dst.append(slice(max(-off, 0), n - max(off, 0)))
    out[tuple(dst)] = w[tuple(src)]
    return out


def dense_matrix(terms: Mapping[tuple, np.ndarray], dim: int) -> np.ndarray:
    """Densify a sum of weighted shifts on the product of len(key) sites.

    Each key is an offset tuple and its array holds the weights indexed
    by the input levels, so entry (k + offset, k) of the result is
    terms[offset][k].  For display, tests and coproduct_matrix only.
    """
    sites = len(next(iter(terms)))
    shape = (dim,) * sites
    out = np.zeros((dim**sites, dim**sites))
    cols = np.indices(shape)
    for offsets, w in terms.items():
        rows = cols + np.reshape(offsets, (sites,) + (1,) * sites)
        ok = np.all((rows >= 0) & (rows < dim), axis=0)
        r = np.ravel_multi_index(tuple(rows[:, ok]), shape)
        c = np.ravel_multi_index(tuple(cols[:, ok]), shape)
        out[r, c] += w[ok]
    return out


@dataclass(frozen=True)
class Shift:
    """Weighted shift |k> -> weights[k] |k + offset> on levels 0 .. dim-1.

    weights[k] is zero wherever k + offset leaves the truncation.  A
    product of shifts is again a shift, and each entry of the dense
    product has exactly one nonzero term, so products computed here
    equal the dense matrix products bit for bit.
    """

    offset: int
    weights: np.ndarray

    def __matmul__(self, other: "Shift") -> "Shift":
        return Shift(
            self.offset + other.offset,
            shift_levels(self.weights, (other.offset,)) * other.weights,
        )

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return shift_levels(self.weights * vec, (-self.offset,))

    def dense(self) -> np.ndarray:
        return dense_matrix({(self.offset,): self.weights}, len(self.weights))


@dataclass(frozen=True)
class FockRep:
    """Truncated representation; every generator is a weighted shift.

    ops maps "1", "a", "a+", "N", "P", "Q" to their shifts: a has
    offset -1 and weights sqrt(w_k), a+ offset +1 and weights
    sqrt(w_{k+1}); N, P, Q and 1 are diagonal (offset 0).  A dense
    matrix, for display and tests, is generator(symbol).dense().
    """

    params: DeformationParams
    dim: int
    x0: float
    nu0: float
    weights: np.ndarray  # length dim+1, w_k = bracket(x0 + l*k)
    ops: Mapping[str, Shift]

    @property
    def x_lattice(self) -> np.ndarray:
        return self.x0 + self.params.l * np.arange(self.dim)

    def generator(self, symbol: str) -> Shift:
        try:
            return self.ops[symbol]
        except KeyError:
            raise KeyError(f"unknown generator symbol {symbol!r}") from None


def build(
    params: DeformationParams,
    dim: int,
    x0: Optional[float] = None,
    nu0: float = 0.0,
) -> FockRep:
    """Construct the truncated representation of size `dim`.

    x0 defaults to params.beta (the structure-function offset); the
    lowest-weight condition w_0 = bracket(x0) = 0 then holds only for
    beta = 0.  Pass x0=0 explicitly to absorb a nonzero beta into the
    lattice.
    """
    if dim < 1:
        raise FockError(f"dim must be positive, got {dim}")
    if x0 is None:
        x0 = params.beta
    x0 = float(x0)
    nu0 = float(nu0)

    weights = np.array([bracket(x0 + params.l * k, params) for k in range(dim + 1)])
    scale = max(1.0, float(np.max(np.abs(weights))))
    if not (-_NEGATIVE_WEIGHT_TOL * scale <= weights[0] <= _LOWEST_WEIGHT_TOL * scale):
        raise NotLowestWeightError(
            f"w_0 = {weights[0]:.6g} != 0: level 0 is not annihilated "
            f"(x0 = {x0:.6g}; the lattice must start at x0 = 0)"
        )
    for k in range(1, dim + 1):
        if weights[k] < -_NEGATIVE_WEIGHT_TOL * scale:
            raise NegativeWeightError(f"w_{k} = {weights[k]:.6g} < 0")

    lower = np.zeros(dim)
    lower[1:] = np.sqrt(np.maximum(weights[1:dim], 0.0))
    lp = math.log(params.p)
    lq = math.log(params.q)
    x = x0 + params.l * np.arange(dim)
    ops = {
        "1": Shift(0, np.ones(dim)),
        "a": Shift(-1, lower),
        "a+": Shift(1, shift_levels(lower, (1,))),
        "N": Shift(0, nu0 + params.l * np.arange(dim)),
        "P": Shift(0, checked_exp(-x * lp)),
        "Q": Shift(0, checked_exp(x * lq)),
    }
    return FockRep(params, dim, x0, nu0, weights, ops)


def check_relations(rep: FockRep, mode: str = "grading", tol: float = 1e-10) -> CheckReport:
    """Residuals of the defining relations as matrix identities.

    The two twisted relations are compared on the interior levels only:
    the top level's a a+ entry is corrupted by the truncation.  In
    grading mode P, Q are the stored diagonals; in literal mode they are
    recomputed as diag(p**-(alpha*nu_k + beta)), diag(q**(alpha*nu_k +
    beta)) from the eigenvalues nu_k of N.  Every operator involved is a
    weighted shift, so each residual is computed on one diagonal.
    Failures are reported, not raised.  Raises ValueError for dim < 2,
    which has no interior level to compare.
    """
    if mode not in ("grading", "literal"):
        raise ValueError(f"mode must be 'grading' or 'literal', got {mode!r}")
    if rep.dim < 2:
        raise ValueError(f"relations need dim >= 2 (an interior level), got {rep.dim}")
    params = rep.params
    if mode == "grading":
        p_gen, q_gen = rep.ops["P"].weights, rep.ops["Q"].weights
    else:
        nu = rep.nu0 + params.l * np.arange(rep.dim)
        expo = params.alpha * nu + params.beta
        p_gen = checked_exp(-expo * math.log(params.p))
        q_gen = checked_exp(expo * math.log(params.q))

    a, ad, n_op = rep.ops["a"], rep.ops["a+"], rep.ops["N"]
    a_ad = (a @ ad).weights
    ad_a = (ad @ a).weights
    interior = slice(0, rep.dim - 1)
    ql = params.q ** params.l
    pl = params.p ** (-params.l)

    r_q = (a_ad - ql * ad_a - p_gen)[interior]
    r_p = (a_ad - pl * ad_a - q_gen)[interior]
    r_lower = (n_op @ a).weights - (a @ n_op).weights + params.l * a.weights
    r_raise = (n_op @ ad).weights - (ad @ n_op).weights - params.l * ad.weights

    def mx(v: np.ndarray) -> float:
        return float(np.max(np.abs(v), initial=0.0))

    entries = (
        CheckEntry("aa+ - q^l a+a = P", mx(r_q), tol),
        CheckEntry("aa+ - p^-l a+a = Q", mx(r_p), tol),
        CheckEntry("[N, a] = -l a", mx(r_lower), tol),
        CheckEntry("[N, a+] = l a+", mx(r_raise), tol),
    )
    metadata = {
        "params": params.as_dict(),
        "dim": rep.dim,
        "mode": mode,
        "x0": rep.x0,
        "nu0": rep.nu0,
        "maxweight": float(np.max(np.abs(rep.weights))),
    }
    return CheckReport("fock-relations", entries, metadata)


def apply_word(rep: FockRep, word: Sequence[str], state: np.ndarray) -> np.ndarray:
    """Apply a product of generators to a state; rightmost symbol first."""
    if len(word) == 0:
        raise ValueError("word must be nonempty")
    vec = np.asarray(state, dtype=float)
    if vec.shape != (rep.dim,):
        raise DimensionMismatchError(f"state has shape {vec.shape}, expected ({rep.dim},)")
    if not np.all(np.isfinite(vec)):
        raise ValueError("state must be finite")
    for symbol in reversed(list(word)):
        vec = rep.generator(symbol).apply(vec)
    return vec
