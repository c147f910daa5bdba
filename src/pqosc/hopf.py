"""Coproduct coefficient system and its numerical verification.

The coproduct / counit / antipode ansatz, its constraint system and the
scalar solve for gamma and c1..c13 are in coefficients, whose names are
re-exported here.  This module checks the solved constants on tensor
products of truncated matrix representations: coassociativity and the
counit axiom on the generators, the homomorphism property on the
twisted commutation relation (which requires b1 - b2 = l so the
representation satisfies the relation), and the antipode
mutual-equality identity.  The full antipode axiom
m(id (x) S)D(h) = eps(h) 1 visibly fails on these constants (for N the
two sides differ by exactly 2*gamma); that gap is reported as a
diagnostic, never asserted.

Every one-site operator is a weighted shift (fock.Shift), so a tensor
product of them is the outer product of their weight vectors under the
tuple of their offsets.  The checks run on these: the three-site
coassociativity residual costs O(dim^3) time and memory, the interior
projector is a cut on the input levels, and no dense d^k x d^k matrix is
built; coproduct_matrix densifies on request.  The one-site checks
(counit and antipode) run on fock's own shifts, tuples of floats, with
one loop over the levels per sum; only the two- and three-site outer
products are numpy.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import add, sub
from typing import Sequence

import numpy as np

from .coefficients import (  # noqa: F401  (re-exported: the scalar half of the system)
    ADegenerateError,
    Beta1Beta2MismatchError,
    GammaUndefinedError,
    HopfCoefficients,
    HopfParams,
    _rel,
    check_constraints,
    solve_coefficients,
    validate_hopf,
)
from .params import require_nonzero_alpha
from .report import CheckEntry, CheckReport, peak
from .fock import FockRep, Shift, dense_matrix

# ---------------------------------------------------------------------------
# Tensor-product evaluation
# ---------------------------------------------------------------------------

# An operator on n sites is a sum of tensor products of weighted shifts,
# stored as {offset tuple: weights}, the weights an n-dimensional array
# indexed by the input levels (k_1, ..., k_n).  Entry (k + offset, k) of
# the dense matrix is weights[k]; terms with different offset tuples
# never share an entry, so sums and comparisons go offset by offset.
Terms = dict[tuple, np.ndarray]
# A one-site sum of shifts, {offset: weights}, the weights a sequence of
# floats indexed by the input level.
OneSite = dict[int, Sequence[float]]


def shift_levels(w: np.ndarray, offsets: tuple) -> np.ndarray:
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


def _add(acc: Terms, key: tuple, w: np.ndarray) -> None:
    acc[key] = acc[key] + w if key in acc else w


def _one_site(terms) -> OneSite:
    """Sum of (coef, Shift) pairs, in order, as {offset: weights}."""
    out: OneSite = {}
    for coef, shift in terms:
        w = [coef * v for v in shift.weights]
        acc = out.get(shift.offset)
        out[shift.offset] = w if acc is None else list(map(add, acc, w))
    return out


def _one_site_residual(left: OneSite, right: OneSite) -> float:
    """Largest |left - right| over every offset and level; NaN if any entry is."""
    diffs = []
    for key in dict.fromkeys([*left, *right]):
        lw, rw = left.get(key), right.get(key)
        diffs += rw if lw is None else lw if rw is None else map(sub, lw, rw)
    return peak(diffs)


def _matmul(x: Terms, y: Terms) -> Terms:
    out: Terms = {}
    for kx, wx in x.items():
        for ky, wy in y.items():
            _add(out, tuple(i + j for i, j in zip(kx, ky)), shift_levels(wx, ky) * wy)
    return out


def _compare(left: Terms, right: Terms, keep: int | None = None):
    """Largest |left - right| over input levels below `keep` on every site.

    Returns (residual, entry_scale, offsets, levels): entry_scale is the
    largest compared |entry| of either side, and offsets, levels locate
    the first worst entry.  A NaN anywhere is the residual.
    """
    peaks = []
    scale = 0.0
    for key in dict.fromkeys([*left, *right]):
        lw, rw = left.get(key, 0.0), right.get(key, 0.0)
        diff = lw - rw
        inner = (slice(0, keep),) * diff.ndim
        diff = np.abs(diff[inner])
        for w in (lw, rw):
            if isinstance(w, np.ndarray):
                scale = max(scale, float(np.max(np.abs(w[inner]))))
        i = int(np.argmax(diff))
        peaks.append((float(diff.flat[i]), key, np.unravel_index(i, diff.shape)))
    residual, key, levels = peaks[int(np.argmax([p[0] for p in peaks]))]
    return residual, scale, [int(o) for o in key], [int(k) for k in levels]


class _HopfEvaluator:
    """Weighted-shift realization of the coproduct/counit/antipode rules.

    The exponential factors are graded over the representation lattice:
    the slot `alpha*N` carries exponent x_k, so p^(-a1 N) becomes
    diag(p^(-(a1/alpha) x_k)), which for a1 = alpha/2 is the half
    grading diag(p^(-x_k/2)).  ops and sops hold fock.Shifts, whose
    weights are tuples of floats: the counit and antipode sum and
    multiply them level by level, one-site products through Shift.@.
    sops is built on first use, so only the antipode check builds it.
    The tensor kernel multiplies the weights as numpy arrays: a tensor
    product of shifts is the outer product of their weights under the
    tuple of their offsets.  Every product is formed as
    coef * (A * (B * C)), the order in which the dense Kronecker product
    multiplies, so the residuals equal those of the dense tensor-product
    matrices bit for bit.
    """

    def __init__(self, rep: FockRep, hc: HopfCoefficients):
        require_nonzero_alpha(rep.params)
        self.rep, self.hc = rep, hc
        p, q = rep.params.p, rep.params.q
        lp, lq = math.log(p), math.log(q)
        xt = self.xt = np.array(rep.x_lattice) / rep.params.alpha  # lattice of a bare N exponent
        diagonals = {
            "G1": np.exp(-hc.alpha1 * xt * lp),
            "H2": np.exp(hc.alpha2 * xt * lq),
            "G3": np.exp(-hc.alpha3 * xt * lp),
            "H4": np.exp(hc.alpha4 * xt * lq),
        }
        self.ops = {s: rep.ops[s] for s in ("1", "a", "a+", "N")}
        self.ops.update((s, Shift(0, tuple(w.tolist()))) for s, w in diagonals.items())

        self.delta = {
            "1": [(1.0, ("1", "1"))],
            "a+": [(hc.c1, ("a+", "G1")), (hc.c2, ("H2", "a+"))],
            "a": [(hc.c3, ("a", "G3")), (hc.c4, ("H4", "a"))],
            "N": [(hc.c5, ("N", "1")), (hc.c6, ("1", "N")), (hc.gamma, ("1", "1"))],
            "G1": [(p ** (-hc.alpha1 * hc.gamma), ("G1", "G1"))],
            "H2": [(q ** (hc.alpha2 * hc.gamma), ("H2", "H2"))],
            "G3": [(p ** (-hc.alpha3 * hc.gamma), ("G3", "G3"))],
            "H4": [(q ** (hc.alpha4 * hc.gamma), ("H4", "H4"))],
        }

        self.eps = {
            "1": 1.0,
            "a+": hc.c7,
            "a": hc.c8,
            "N": hc.c9,
            "G1": p ** (-hc.alpha1 * hc.c9),
            "H2": q ** (hc.alpha2 * hc.c9),
            "G3": p ** (-hc.alpha3 * hc.c9),
            "H4": q ** (hc.alpha4 * hc.c9),
        }

    @cached_property
    def sops(self) -> dict:
        """Antipode shifts.

        The affine rule on N and the twist on the exponential factors use
        opposite signs of c12; the mutual-equality identity on the ladder
        generators and the exact 2*gamma closure gap on N both depend on
        this pairing.
        """
        hc, xt = self.hc, self.xt
        p, q = self.rep.params.p, self.rep.params.q
        lp, lq = math.log(p), math.log(q)
        twists = {
            "G1": p ** (-hc.alpha1 * hc.c13) * np.exp(hc.alpha1 * hc.c12 * xt * lp),
            "H2": q ** (hc.alpha2 * hc.c13) * np.exp(-hc.alpha2 * hc.c12 * xt * lq),
            "G3": p ** (-hc.alpha3 * hc.c13) * np.exp(hc.alpha3 * hc.c12 * xt * lp),
            "H4": q ** (hc.alpha4 * hc.c13) * np.exp(-hc.alpha4 * hc.c12 * xt * lq),
        }
        one, a, ad, n_op = (self.ops[s] for s in ("1", "a", "a+", "N"))
        neg_c10, neg_c11 = -hc.c10, -hc.c11
        s_n = [hc.c12 * n + hc.c13 * u for n, u in zip(n_op.weights, one.weights)]
        sops = {
            "1": one,
            "a": Shift(a.offset, tuple([neg_c11 * w for w in a.weights])),
            "a+": Shift(ad.offset, tuple([neg_c10 * w for w in ad.weights])),
            "N": Shift(0, tuple(s_n)),
        }
        sops.update((s, Shift(0, tuple(w.tolist()))) for s, w in twists.items())
        return sops

    def two_site(self, gen: str) -> Terms:
        out: Terms = {}
        for t, (s1, s2) in self.delta[gen]:
            key = (self.ops[s1].offset, self.ops[s2].offset)
            _add(out, key, t * np.multiply.outer(self.ops[s1].weights, self.ops[s2].weights))
        return out

    def _three_site(self, gen: str, expand_slot: int, arrays: dict) -> Terms:
        out: Terms = {}
        for t, (s1, s2) in self.delta[gen]:
            if expand_slot == 2:
                terms = [(t * t2, (s1, u1, u2)) for t2, (u1, u2) in self.delta[s2]]
            else:
                terms = [(t * t1, (u1, u2, s2)) for t1, (u1, u2) in self.delta[s1]]
            for coef, (x, y, z) in terms:
                w = coef * np.multiply.outer(arrays[x], np.multiply.outer(arrays[y], arrays[z]))
                _add(out, (self.ops[x].offset, self.ops[y].offset, self.ops[z].offset), w)
        return out

    def coassoc_residual(self, gen: str):
        """_compare of the two sides on the interior (top two levels of each site cut).

        Every factor is cut to its first dim - 2 levels before the outer
        products, so only the compared entries are formed.
        """
        keep = self.rep.dim - 2
        inner = {s: np.array(op.weights[:keep]) for s, op in self.ops.items()}
        left = self._three_site(gen, 2, inner)
        right = self._three_site(gen, 1, inner)
        return _compare(left, right)

    def counit_residuals(self, gen: str) -> tuple[float, float]:
        target = {self.ops[gen].offset: self.ops[gen].weights}
        left = _one_site((t * self.eps[s2], self.ops[s1]) for t, (s1, s2) in self.delta[gen])
        right = _one_site((t * self.eps[s1], self.ops[s2]) for t, (s1, s2) in self.delta[gen])
        return _one_site_residual(left, target), _one_site_residual(right, target)

    def antipode_sides(self, gen: str) -> tuple[OneSite, OneSite]:
        terms = self.delta[gen]
        m_id_s = _one_site((t, self.ops[s1] @ self.sops[s2]) for t, (s1, s2) in terms)
        m_s_id = _one_site((t, self.sops[s1] @ self.ops[s2]) for t, (s1, s2) in terms)
        return m_id_s, m_s_id


def coproduct_matrix(rep: FockRep, hc: HopfCoefficients, gen: str) -> np.ndarray:
    """Dense tensor-product matrix of the coproduct of a generator.

    gen is one of "1", "a", "a+", "N"; the result acts on the
    dim**2-dimensional two-site space.  The checks never build it.
    """
    if gen not in ("1", "a", "a+", "N"):
        raise ValueError(f"gen must be one of '1', 'a', 'a+', 'N', got {gen!r}")
    return dense_matrix(_HopfEvaluator(rep, hc).two_site(gen), rep.dim)


def check_coassociativity(rep: FockRep, hc: HopfCoefficients, tol: float = 1e-10) -> CheckReport:
    """(id (x) D)D(g) versus (D (x) id)D(g) on the three-site space.

    Compared on input levels below dim - 2 on every site.  metadata
    gives, per generator, entry_scale (the largest compared |entry| of
    either side) and, in "worst", where the largest residual sits: the
    generator, the offset triple and the input basis triple (k1, k2, k3).
    Raises ValueError for dim < 3, which has no interior level to compare.
    """
    if rep.dim < 3:
        raise ValueError(f"coassociativity needs dim >= 3 (an interior level), got {rep.dim}")
    ev = _HopfEvaluator(rep, hc)
    gens = ("a", "a+", "N")
    found = [ev.coassoc_residual(g) for g in gens]
    entries = tuple(CheckEntry(f"coassoc {g}", f[0], tol) for g, f in zip(gens, found))
    i = int(np.argmax([f[0] for f in found]))
    metadata = {
        "params": rep.params.as_dict(),
        "dim": rep.dim,
        "interior_levels": 2,
        "entry_scale": {g: f[1] for g, f in zip(gens, found)},
        "worst": {
            "generator": gens[i],
            "residual": found[i][0],
            "offset": found[i][2],
            "basis": found[i][3],
        },
    }
    return CheckReport("hopf-coassociativity", entries, metadata)


def check_counit(hc: HopfCoefficients, rep: FockRep, tol: float = 1e-12) -> CheckReport:
    """(id (x) eps)D(g) = g = (eps (x) id)D(g) on the generators."""
    ev = _HopfEvaluator(rep, hc)
    entries = []
    for g in ("a", "a+", "N", "1"):
        left, right = ev.counit_residuals(g)
        entries.append(CheckEntry(f"counit left {g}", left, tol))
        entries.append(CheckEntry(f"counit right {g}", right, tol))
    metadata = {"params": rep.params.as_dict(), "dim": rep.dim}
    return CheckReport("hopf-counit", tuple(entries), metadata)


def check_antipode(hc: HopfCoefficients, rep: FockRep, tol: float = 1e-10) -> CheckReport:
    """Mutual equality m(id (x) S)D(g) = m(S (x) id)D(g) on the generators.

    The closure gaps against eps(g)*1 go to metadata["axiom_closure"]
    as diagnostics; for g = N the gap equals 2*|gamma| exactly.
    """
    ev = _HopfEvaluator(rep, hc)
    entries = []
    closure = {}
    for g in ("a", "a+", "N", "1"):
        m_id_s, m_s_id = ev.antipode_sides(g)
        entries.append(CheckEntry(f"antipode mutual {g}", _one_site_residual(m_id_s, m_s_id), tol))
        closure[g] = _one_site_residual(m_id_s, {0: [ev.eps[g]] * rep.dim})
    metadata = {
        "params": rep.params.as_dict(),
        "dim": rep.dim,
        "gamma": hc.gamma,
        "axiom_closure": closure,
    }
    return CheckReport("hopf-antipode", tuple(entries), metadata)


def check_homomorphism(
    rep: FockRep,
    hc: HopfCoefficients,
    hp: HopfParams,
    tol: float = 1e-9,
) -> CheckReport:
    """Coproduct applied to the twisted relation, on the two-site space.

    Compares D(a)D(a+) - A D(a+)D(a) against the coproduct of the
    relation's right-hand side assembled from the grading diagonals.
    Requires beta1 - beta2 = l, the regime in which the representation
    satisfies the relation being transported.  Raises ValueError for
    dim < 3, which has no interior level to compare.
    """
    if rep.dim < 3:
        raise ValueError(f"homomorphism needs dim >= 3 (an interior level), got {rep.dim}")
    params = rep.params
    if abs((hp.beta1 - hp.beta2) - params.l) > 1e-12:
        raise Beta1Beta2MismatchError(
            f"beta1 - beta2 = {hp.beta1 - hp.beta2:.6g} != l = {params.l:.6g}"
        )
    for name, got, want in (
        ("p", hp.p, params.p),
        ("q", hp.q, params.q),
        ("alpha", hp.alpha, params.alpha),
        ("l", hp.l, params.l),
    ):
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
            raise ValueError(f"hp.{name} = {got} does not match the representation ({want})")

    ev = _HopfEvaluator(rep, hc)
    delta_a = ev.two_site("a")
    delta_ad = ev.two_site("a+")
    lhs = _matmul(delta_a, delta_ad)
    for key, w in _matmul(delta_ad, delta_a).items():
        _add(lhs, key, -hc.A * w)

    p, q, alpha, l = params.p, params.q, params.alpha, params.l
    den = p ** (-l) - q ** l
    coef_p = (p ** (-alpha * hc.gamma)) * (p ** (-hp.beta1) - hc.A * p ** (-hp.beta2)) / den
    coef_q = (q ** (alpha * hc.gamma)) * (q ** hp.beta1 - hc.A * q ** hp.beta2) / den
    pw, qw = np.array(rep.ops["P"].weights), np.array(rep.ops["Q"].weights)
    rhs = {(0, 0): coef_p * np.multiply.outer(pw, pw) - coef_q * np.multiply.outer(qw, qw)}
    residual = _compare(lhs, rhs, keep=rep.dim - 2)[0]

    entries = (CheckEntry("homomorphism twisted relation", residual, tol),)
    metadata = {
        "hopf_params": hp.as_dict(),
        "dim": rep.dim,
        "A": hc.A,
        "gamma": hc.gamma,
        "interior_levels": 2,
    }
    return CheckReport("hopf-homomorphism", entries, metadata)
