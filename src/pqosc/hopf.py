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
tuple of their offsets.  Coassociativity is an identity in the algebra,
so it is decided on symbol words: both sides are expanded from the
coproduct table into one coefficient per word, and the residual of each
offset block is bounded by the coefficient gaps times the largest
interior weights of the word's factors.  That costs O(words * dim) at
any dim and forms no three-site array.  Every other operator is a sum
of tensor products of shifts, [(coef, (Shift, ...))]: the counit and
antipode on one site, the homomorphism check on two, where a product of
terms is a term of the sites' Shift.@ products.  fock.tensor_blocks
reduces such a sum to its offset blocks, which are compared entry by
entry.  No dense matrix is formed and nothing here imports numpy.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import sub
from typing import Sequence

from .coefficients import (  # noqa: F401  (re-exported: the scalar half of the system)
    ADegenerateError,
    Beta1Beta2MismatchError,
    GammaUndefinedError,
    HopfCoefficients,
    HopfParams,
    check_constraints,
    solve_coefficients,
    validate_hopf,
)
from .params import require_nonzero_alpha
from .report import CheckEntry, CheckReport, peak
from .fock import FockRep, Shift, _exps, tensor_blocks

# ---------------------------------------------------------------------------
# Tensor-product evaluation
# ---------------------------------------------------------------------------


def _residual(left: dict, right: dict) -> float:
    """Largest |left - right| over every offset block and entry; NaN if any entry is.

    Raises ValueError where a block has a different length on each side,
    which map(sub, ...) would truncate to the shorter one.
    """
    diffs = []
    for key in dict.fromkeys([*left, *right]):
        lw, rw = left.get(key), right.get(key)
        if lw is not None and rw is not None and len(lw) != len(rw):
            raise ValueError(f"block {key}: {len(lw)} entries on the left, {len(rw)} on the right")
        diffs += rw if lw is None else lw if rw is None else map(sub, lw, rw)
    return peak(diffs)


def _argpeak(values: Sequence[float]) -> int:
    """Index of the entry that sets peak(values): the first NaN, else the first largest |v|."""
    top = peak(values)
    return next(i for i, v in enumerate(values) if abs(v) == top or v != v)


class _HopfEvaluator:
    """Weighted-shift realization of the coproduct/counit/antipode rules.

    The exponential factors are graded over the representation lattice:
    the slot `alpha*N` carries exponent x_k, so p^(-a1 N) becomes
    diag(p^(-(a1/alpha) x_k)), which for a1 = alpha/2 is the half
    grading diag(p^(-x_k/2)); the diagonals and the antipode twists are
    evaluated by fock._exps, which raises ExponentOverflowError where an
    exponent leaves EXP_LIMIT.  ops and sops hold fock.Shifts, whose
    weights are tuples of floats; one-site products go through Shift.@.
    sops is built on first use, so only the antipode check builds it.

    Coassociativity runs on symbol words.  Expanding (id (x) D)D(g) and
    (D (x) id)D(g) from the delta table gives one coefficient per symbol
    triple w = (x, y, z) and side, L_w and R_w, each product formed as
    t * t2 and summed in term order.  The word's term is the outer
    product of the weights of x, y and z under their offset triple, so
    words with different offset triples never share an entry.  On the
    interior (the first dim - 2 levels of each site), with |s| the
    largest |weight| of s there, an offset block's residual is bounded
    by sum_w |L_w - R_w| * |x| * (|y| * |z|), which equals the exact
    interior residual where the block holds one word, as every block of
    a and a+ does.  A NaN or inf interior weight makes the bound NaN or inf, so
    the check fails.
    """

    def __init__(self, rep: FockRep, hc: HopfCoefficients):
        require_nonzero_alpha(rep.params)
        self.rep, self.hc = rep, hc
        p, q = rep.params.p, rep.params.q
        lp, lq = math.log(p), math.log(q)
        alpha = rep.params.alpha
        xt = self.xt = [x / alpha for x in rep.x_lattice]  # lattice of a bare N exponent
        self.ops = {s: rep.ops[s] for s in ("1", "a", "a+", "N")}
        self.ops["G1"] = Shift(0, _exps([-hc.alpha1 * x * lp for x in xt]))
        self.ops["H2"] = Shift(0, _exps([hc.alpha2 * x * lq for x in xt]))
        self.ops["G3"] = Shift(0, _exps([-hc.alpha3 * x * lp for x in xt]))
        self.ops["H4"] = Shift(0, _exps([hc.alpha4 * x * lq for x in xt]))

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

        def twist(pre: float, e: float, ln: float) -> Shift:
            return Shift(0, tuple([pre * v for v in _exps([e * x * ln for x in xt])]))

        one, a, ad, n_op = (self.ops[s] for s in ("1", "a", "a+", "N"))
        neg_c10, neg_c11 = -hc.c10, -hc.c11
        s_n = [hc.c12 * n + hc.c13 * u for n, u in zip(n_op.weights, one.weights)]
        return {
            "1": one,
            "a": Shift(a.offset, tuple([neg_c11 * w for w in a.weights])),
            "a+": Shift(ad.offset, tuple([neg_c10 * w for w in ad.weights])),
            "N": Shift(0, tuple(s_n)),
            "G1": twist(p ** (-hc.alpha1 * hc.c13), hc.alpha1 * hc.c12, lp),
            "H2": twist(q ** (hc.alpha2 * hc.c13), -hc.alpha2 * hc.c12, lq),
            "G3": twist(p ** (-hc.alpha3 * hc.c13), hc.alpha3 * hc.c12, lp),
            "H4": twist(q ** (hc.alpha4 * hc.c13), -hc.alpha4 * hc.c12, lq),
        }

    def two_site(self, gen: str) -> list:
        """D(gen) as a sum of tensor products of shifts, [(t, (x, y))]."""
        return [(t, (self.ops[s1], self.ops[s2])) for t, (s1, s2) in self.delta[gen]]

    def words(self, gen: str) -> dict:
        """{(x, y, z): [L, R]}: the coefficient of each symbol triple in
        (id (x) D)D(gen) and in (D (x) id)D(gen)."""
        coefs: dict = {}
        for t, (s1, s2) in self.delta[gen]:
            for t2, (u1, u2) in self.delta[s2]:
                coefs.setdefault((s1, u1, u2), [0.0, 0.0])[0] += t * t2
            for t1, (u1, u2) in self.delta[s1]:
                coefs.setdefault((u1, u2, s2), [0.0, 0.0])[1] += t * t1
        return coefs

    @cached_property
    def interior(self) -> tuple[dict, dict]:
        """Each symbol's weights on the interior (the first dim - 2 levels) and their peak."""
        keep = self.rep.dim - 2
        inner = {s: op.weights[:keep] for s, op in self.ops.items()}
        return inner, {s: peak(w) for s, w in inner.items()}

    def coassoc_residual(self, gen: str):
        """The word bound of gen's coassociativity residual on the interior.

        Returns (residual, entry_scale, offsets, levels, word): the
        largest block bound; the largest block sum of
        max(|L_w|, |R_w|) * |x| * (|y| * |z|), which on a one-word block
        is the largest compared |entry| bit for bit; and the worst
        block's offset triple, the input levels where the factors of its
        largest word term peak, and that word.
        """
        inner, norm = self.interior
        blocks: dict = {}  # offset triple: [bound, scale, [(word term, word)]]
        for (x, y, z), (lc, rc) in self.words(gen).items():
            size = norm[x] * (norm[y] * norm[z])
            gap = abs(lc - rc) * size
            block = blocks.setdefault(
                (self.ops[x].offset, self.ops[y].offset, self.ops[z].offset), [0.0, 0.0, []]
            )
            block[0] += gap
            block[1] += peak((lc, rc)) * size
            block[2].append((gap, (x, y, z)))
        found = list(blocks.items())
        offsets, (residual, _, terms) = found[_argpeak([b[0] for _, b in found])]
        word = terms[_argpeak([gap for gap, _ in terms])][1]
        levels = [_argpeak(inner[s]) for s in word]
        return residual, peak(b[1] for _, b in found), list(offsets), levels, list(word)

    def counit_residuals(self, gen: str) -> tuple[float, float]:
        terms, ops, eps, dim = self.delta[gen], self.ops, self.eps, self.rep.dim
        target = {(ops[gen].offset,): ops[gen].weights}
        left = tensor_blocks([(t * eps[s2], (ops[s1],)) for t, (s1, s2) in terms], dim)
        right = tensor_blocks([(t * eps[s1], (ops[s2],)) for t, (s1, s2) in terms], dim)
        return _residual(left, target), _residual(right, target)

    def antipode_sides(self, gen: str) -> tuple[dict, dict]:
        terms, ops, sops, dim = self.delta[gen], self.ops, self.sops, self.rep.dim
        m_id_s = tensor_blocks([(t, (ops[s1] @ sops[s2],)) for t, (s1, s2) in terms], dim)
        m_s_id = tensor_blocks([(t, (sops[s1] @ ops[s2],)) for t, (s1, s2) in terms], dim)
        return m_id_s, m_s_id


def check_coassociativity(rep: FockRep, hc: HopfCoefficients, tol: float = 1e-10) -> CheckReport:
    """(id (x) D)D(g) versus (D (x) id)D(g) on the three-site space.

    Decided on symbol words and compared on input levels below dim - 2
    on every site: each generator's residual is the largest offset
    block's sum_w |L_w - R_w| * |x| * (|y| * |z|), an upper bound on the
    interior residual of the tensor-product matrices that equals it on
    one-word blocks (see _HopfEvaluator).  metadata gives, per
    generator, entry_scale (per block sum_w max(|L_w|, |R_w|) * |T_w|,
    the largest compared |entry| where a block holds one word) and, in
    "worst", where the largest residual sits: the generator, the offset
    triple, the symbol triple of that block's largest word term and the
    input basis triple (k1, k2, k3) where its factors peak.  Raises
    ValueError for dim < 3, which has no interior level to compare.
    """
    if rep.dim < 3:
        raise ValueError(f"coassociativity needs dim >= 3 (an interior level), got {rep.dim}")
    ev = _HopfEvaluator(rep, hc)
    gens = ("a", "a+", "N")
    found = [ev.coassoc_residual(g) for g in gens]
    entries = tuple(CheckEntry(f"coassoc {g}", f[0], tol) for g, f in zip(gens, found))
    i = _argpeak([f[0] for f in found])
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
            "word": found[i][4],
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
        entries.append(CheckEntry(f"antipode mutual {g}", _residual(m_id_s, m_s_id), tol))
        closure[g] = _residual(m_id_s, {(0,): [ev.eps[g]] * rep.dim})
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
    delta_a, delta_ad = ev.two_site("a"), ev.two_site("a+")

    def product(left: list, right: list, scale: float) -> list:
        return [
            (scale * (t * u), (x1 @ y1, x2 @ y2))
            for t, (x1, x2) in left
            for u, (y1, y2) in right
        ]

    lhs = product(delta_a, delta_ad, 1.0) + product(delta_ad, delta_a, -hc.A)

    p, q, alpha, l = params.p, params.q, params.alpha, params.l
    den = p ** (-l) - q ** l
    coef_p = (p ** (-alpha * hc.gamma)) * (p ** (-hp.beta1) - hc.A * p ** (-hp.beta2)) / den
    coef_q = (q ** (alpha * hc.gamma)) * (q ** hp.beta1 - hc.A * q ** hp.beta2) / den
    P, Q = rep.ops["P"], rep.ops["Q"]
    rhs = [(coef_p, (P, P)), (-coef_q, (Q, Q))]
    keep = rep.dim - 2
    residual = _residual(tensor_blocks(lhs, keep), tensor_blocks(rhs, keep))

    entries = (CheckEntry("homomorphism twisted relation", residual, tol),)
    metadata = {
        "hopf_params": hp.as_dict(),
        "dim": rep.dim,
        "A": hc.A,
        "gamma": hc.gamma,
        "interior_levels": 2,
    }
    return CheckReport("hopf-homomorphism", entries, metadata)
