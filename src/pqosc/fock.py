"""Truncated matrix representations of the deformed ladder algebra.

The representation lives on basis levels k = 0 .. dim-1.  The number
operator is N = diag(l*k), the grading lattice is x_k = x0 + l*k,
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
relation residuals and apply_word cost O(dim).  Weights, states and
lattices are tuples of Python floats: at these sizes a loop over levels
costs less than importing numpy, so building and checking a
representation loads neither numpy nor dataclasses.  No dense matrix
is formed here: a shift's matrix has weights[k] at entry (k + offset, k).
A representation that does not exist raises FockError, a ParameterError.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import mul
from typing import Optional, Sequence

from .params import DeformationParams, ParameterError
from .report import CheckEntry, CheckReport, peak
from .structure import brackets, checked_exps


class FockError(ParameterError):
    """The requested truncated representation does not exist."""


class NotLowestWeightError(FockError):
    """w_0 != 0, so the level below the cutoff is not annihilated."""


class DimensionMismatchError(ValueError):
    """Operand shapes do not match the representation dimension."""


def _shifted(w: tuple, off: int) -> tuple:
    """out[k] = w[k + off], zero where k + off leaves w."""
    n = len(w)
    if off >= 0:
        return w[off:] + (0.0,) * min(off, n)
    return (0.0,) * min(-off, n) + w[: max(n + off, 0)]


class Shift(namedtuple("Shift", "offset weights")):
    """Weighted shift |k> -> weights[k] |k + offset> on levels 0 .. dim-1.

    weights is a tuple of floats, zero wherever k + offset leaves the
    truncation.  A product of shifts is again a shift, and each entry of
    the dense product has exactly one nonzero term, so products computed
    here equal the dense matrix products bit for bit.
    """

    __slots__ = ()

    def __matmul__(self, other: "Shift") -> "Shift":
        shifted = _shifted(self.weights, other.offset)
        return Shift(self.offset + other.offset, tuple(map(mul, shifted, other.weights)))

    def apply(self, vec: Sequence[float]) -> tuple:
        return _shifted(tuple(map(mul, self.weights, vec)), -self.offset)


class FockRep(namedtuple("FockRep", "params dim x0 maxweight weights ops")):
    """Truncated representation; every generator is a weighted shift.

    weights holds w_k = bracket(x0 + l*k) for k = 0 .. dim, a tuple of
    dim + 1 floats, and maxweight their peak |w_k|.  ops maps "1", "a",
    "a+", "N", "P", "Q" to their shifts: a has offset -1 and weights
    sqrt(w_k), a+ offset +1 and weights sqrt(w_{k+1}); N, P, Q and 1 are
    diagonal (offset 0).

    No __slots__: the instance __dict__ may hold the Hopf rule tables
    that hopf._symbols builds from rep and one HopfCoefficients; ==,
    repr, _asdict and _replace never read it, and _replace makes a rep
    without it.  ops is read-only: the memo is built from it.
    """

    def generator(self, symbol: str) -> Shift:
        try:
            return self.ops[symbol]
        except KeyError:
            raise KeyError(f"unknown generator symbol {symbol!r}") from None


def build(
    params: DeformationParams,
    dim: int,
    x0: Optional[float] = None,
) -> FockRep:
    """Construct the truncated representation of size `dim`.

    x0 defaults to params.beta (the structure-function offset).  The
    representation exists exactly when level 0 is annihilated, and that
    is decided exactly: NotLowestWeightError unless w_0 = bracket(x0) is
    0.0 (or -0.0), at every dim.  The bracket's only zero is x0 = 0, so
    the default holds only for beta = 0; pass x0=0 explicitly to absorb
    a nonzero beta into the lattice.  At w_0 = 0 every w_k, k >= 1, is
    bracket(l*k) > 0, and a has weights sqrt(w_k).
    """
    if dim < 1:
        raise FockError(f"dim must be positive, got {dim}")
    if x0 is None:
        x0 = params.beta
    x0 = float(x0)

    l = params.l
    x, weights = brackets(x0, l, dim + 1, params)
    weights = tuple(weights)
    maxweight = peak(weights)
    if weights[0] != 0.0:
        raise NotLowestWeightError(
            f"w_0 = {weights[0]:.6g} != 0: level 0 is not annihilated "
            f"(x0 = {x0:.6g}; the lattice must start at x0 = 0)"
        )
    # tuple() of a list, not of map: tuple() of an iterator resizes its
    # result as it grows, which fragments the heap over many small builds.
    lower = (0.0,) + tuple([math.sqrt(w) for w in weights[1:dim]])
    lp = math.log(params.p)
    lq = math.log(params.q)
    x.pop()  # P and Q sit on levels 0 .. dim-1
    # N = diag(l*k); + 0.0 makes level 0 read 0.0, not -0.0, at l < 0
    ops = {
        "1": Shift(0, (1.0,) * dim),
        "a": Shift(-1, lower),
        "a+": Shift(1, _shifted(lower, 1)),
        "N": Shift(0, tuple([l * k + 0.0 for k in range(dim)])),
        "P": Shift(0, checked_exps([-t * lp for t in x])),
        "Q": Shift(0, checked_exps([t * lq for t in x])),
    }
    return FockRep(params, dim, x0, maxweight, weights, ops)


def check_relations(rep: FockRep, mode: str = "grading", tol: float = 1e-10) -> CheckReport:
    """Residuals of the defining relations as matrix identities.

    The two twisted relations are compared on the interior levels only:
    the top level's a a+ entry is corrupted by the truncation.  In
    grading mode P, Q are the stored diagonals; in literal mode they are
    recomputed as diag(p**-(alpha*nu_k + beta)), diag(q**(alpha*nu_k +
    beta)) from the eigenvalues nu_k of N.  Each product in the relations
    (a a+, a+ a, N a, a N, N a+, a+ N) is a Shift.@ product, equal bit
    for bit to the dense matrix product, so each residual is one loop
    over the levels.  A NaN weight makes its residuals NaN, and they
    fail.  Failures are reported, not raised.  Raises ValueError for
    dim < 2, which has no interior level to compare.
    """
    if mode not in ("grading", "literal"):
        raise ValueError(f"mode must be 'grading' or 'literal', got {mode!r}")
    if rep.dim < 2:
        raise ValueError(f"relations need dim >= 2 (an interior level), got {rep.dim}")
    params = rep.params
    l = params.l
    a, ad, n = rep.ops["a"], rep.ops["a+"], rep.ops["N"]
    if mode == "grading":
        p_gen, q_gen = rep.ops["P"].weights, rep.ops["Q"].weights
    else:
        expo = [params.alpha * nu + params.beta for nu in n.weights]
        lp, lq = math.log(params.p), math.log(params.q)
        p_gen = checked_exps([-t * lp for t in expo])
        q_gen = checked_exps([t * lq for t in expo])

    ql = params.q ** l
    pl = params.p ** (-l)
    a_ad, ad_a = (a @ ad).weights[:-1], (ad @ a).weights[:-1]  # the interior levels
    r_q = [u - ql * v - g for u, v, g in zip(a_ad, ad_a, p_gen)]
    r_p = [u - pl * v - g for u, v, g in zip(a_ad, ad_a, q_gen)]
    r_lower = [u - v + l * w for u, v, w in zip((n @ a).weights, (a @ n).weights, a.weights)]
    r_raise = [u - v - l * w for u, v, w in zip((n @ ad).weights, (ad @ n).weights, ad.weights)]

    entries = (
        CheckEntry("aa+ - q^l a+a = P", peak(r_q), tol),
        CheckEntry("aa+ - p^-l a+a = Q", peak(r_p), tol),
        CheckEntry("[N, a] = -l a", peak(r_lower), tol),
        CheckEntry("[N, a+] = l a+", peak(r_raise), tol),
    )
    metadata = {
        "params": params.as_dict(),
        "dim": rep.dim,
        "mode": mode,
        "x0": rep.x0,
        "nu0": n.weights[0],
        "maxweight": rep.maxweight,
    }
    return CheckReport("fock-relations", entries, metadata)


def apply_word(rep: FockRep, word: Sequence[str], state: Sequence[float]) -> list:
    """Apply a product of generators to a state; rightmost symbol first.

    state is a flat sequence of dim numbers (a list, tuple or 1-D array);
    the result is a new list of dim floats, which the caller may change.
    """
    if len(word) == 0:
        raise ValueError("word must be nonempty")
    shape = getattr(state, "shape", None)  # an array's; a sequence must hold numbers
    as_floats = False
    if shape is not None:
        if len(shape) != 1:
            raise DimensionMismatchError(f"state has shape {tuple(shape)}, expected ({rep.dim},)")
        # Python numbers in one call, not one float() per array scalar; a
        # float64 array's are already floats, any other dtype's go through float()
        as_floats = getattr(state, "dtype", None) == "float64"
        state = state.tolist()
    try:
        vec = tuple(state) if as_floats else tuple(map(float, state))
    except TypeError:  # not a sequence, or one of sequences
        raise DimensionMismatchError(f"state must be a sequence of {rep.dim} numbers") from None
    if len(vec) != rep.dim:
        raise DimensionMismatchError(f"state has shape ({len(vec)},), expected ({rep.dim},)")
    if not all(map(math.isfinite, vec)):
        raise ValueError("state must be finite")
    for symbol in reversed(list(word)):
        vec = rep.generator(symbol).apply(vec)
    return list(vec)
