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

Every one-site operator is a weighted shift (fock.Shift).  _symbols
realizes the rules on a representation: one number operator
N = diag(l*k / alpha), the shifts of the symbols, the coproduct table
and the counit.  The four exponential factors G1, H2, G3, H4 are the
rows of one factor table, (base, ln base, slope s) for base^(s N); each
factor's diagonal, coproduct scalar, counit and antipode twist are
formed from its row, and D(N), eps(N) and S(N) act on the same N, so
D(G) = G(D(N)) at every alpha.  The tables are built once per (rep, hc)
and kept on rep, so the checks on one representation share them; each
check builds from them only what it reads and changes none of them.
Coassociativity is an identity in the algebra, so it is decided on
symbol words, at O(words * dim) and with no three-site array.
Every other operator is a sum of tensor products of shifts,
[(coef, (Shift, ...))]: the counit and antipode on one site, the
homomorphism check on two, where a product of terms is a term of the
sites' Shift.@ products.  fock.tensor_blocks reduces such a sum to its
offset blocks, which are compared entry by entry.  No dense matrix is
formed and nothing here imports numpy.
"""

from __future__ import annotations

import math
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
from .fock import FockRep, Shift, tensor_blocks
from .structure import checked_exps

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


def _symbols(rep: FockRep, hc: HopfCoefficients) -> tuple:
    """The coproduct and counit rules realized on rep: (ops, delta, eps, factors).

    ops maps each symbol to its shift, delta each symbol to its coproduct
    [(coef, (s1, s2))], eps each symbol to its counit, and factors each
    exponential factor to its (base, ln base, s).  Every rule reads one
    number operator, ops["N"] = diag(x_k / alpha): the slot alpha*N
    carries x_k = l*k, the diagonal of rep's own N.  A factor base^(s N)
    is evaluated by structure.checked_exps, which raises
    ExponentOverflowError where an exponent leaves EXP_LIMIT.

    The tables are built once per (rep, hc) and kept in rep.__dict__ as
    (hc, tables), read back while hc is the same object: HopfCoefficients
    is frozen, so the same object means the same values, and a replaced
    hc is rebuilt.  Only a successful build is kept, so a failing one
    raises on every call.  Callers only read the tables.
    """
    memo = rep.__dict__.get("_symbols")
    if memo is not None and memo[0] is hc:
        return memo[1]
    require_nonzero_alpha(rep.params)
    p, q, alpha = rep.params.p, rep.params.q, rep.params.alpha
    lp, lq = math.log(p), math.log(q)
    factors = {
        "G1": (p, lp, -hc.alpha1),
        "H2": (q, lq, hc.alpha2),
        "G3": (p, lp, -hc.alpha3),
        "H4": (q, lq, hc.alpha4),
    }
    ops = {s: rep.ops[s] for s in ("1", "a", "a+")}
    ops["N"] = n = Shift(0, tuple([x / alpha for x in rep.ops["N"].weights]))
    for f, (_, ln, s) in factors.items():
        ops[f] = Shift(0, checked_exps([s * x * ln for x in n.weights]))
    delta = {
        "1": [(1.0, ("1", "1"))],
        "a+": [(hc.c1, ("a+", "G1")), (hc.c2, ("H2", "a+"))],
        "a": [(hc.c3, ("a", "G3")), (hc.c4, ("H4", "a"))],
        "N": [(hc.c5, ("N", "1")), (hc.c6, ("1", "N")), (hc.gamma, ("1", "1"))],
    }
    delta.update({f: [(b ** (s * hc.gamma), (f, f))] for f, (b, _, s) in factors.items()})
    eps = {"1": 1.0, "a+": hc.c7, "a": hc.c8, "N": hc.c9}
    eps.update({f: b ** (s * hc.c9) for f, (b, _, s) in factors.items()})
    tables = ops, delta, eps, factors
    rep.__dict__["_symbols"] = (hc, tables)
    return tables


def check_coassociativity(rep: FockRep, hc: HopfCoefficients, tol: float = 1e-10) -> CheckReport:
    """(id (x) D)D(g) versus (D (x) id)D(g) on the three-site space.

    Decided on symbol words.  Expanding both sides from the coproduct
    table gives one coefficient per symbol triple w = (x, y, z) and side,
    L_w and R_w, each product formed as t * t2 and summed in term order.
    The word's term T_w is the outer product of the weights of x, y and z
    under their offset triple, so words with different offset triples
    never share an entry.  Input levels below dim - 2 on every site (the
    interior) are compared: with |s| the largest interior |weight| of s,
    each generator's residual is the largest offset block's
    sum_w |L_w - R_w| * |x| * (|y| * |z|), an upper bound on the interior
    residual of the tensor-product matrices that equals it where the
    block holds one word, as every block of a and a+ does.  A NaN or inf
    interior weight makes the bound NaN or inf, so the check fails.
    metadata gives, per generator, entry_scale (the largest block sum of
    max(|L_w|, |R_w|) * |x| * (|y| * |z|), the largest compared |entry|
    bit for bit where a block holds one word) and, in "worst", where the
    largest residual sits: the generator, the offset triple, the symbol
    triple of that block's largest word term and the input basis triple
    (k1, k2, k3) where its factors peak.  Raises ValueError for dim < 3,
    which has no interior level to compare.
    """
    if rep.dim < 3:
        raise ValueError(f"coassociativity needs dim >= 3 (an interior level), got {rep.dim}")
    ops, delta, _, _ = _symbols(rep, hc)
    inner = {s: op.weights[: rep.dim - 2] for s, op in ops.items()}
    norm = {s: peak(w) for s, w in inner.items()}
    gens = ("a", "a+", "N")
    found = []  # per generator: (residual, entry_scale, offsets, levels, word)
    for gen in gens:
        words: dict = {}  # (x, y, z): [L_w, R_w]
        for t, (s1, s2) in delta[gen]:
            for t2, (u1, u2) in delta[s2]:
                words.setdefault((s1, u1, u2), [0.0, 0.0])[0] += t * t2
            for t1, (u1, u2) in delta[s1]:
                words.setdefault((u1, u2, s2), [0.0, 0.0])[1] += t * t1
        blocks: dict = {}  # offset triple: [bound, scale, [(word term, word)]]
        for (x, y, z), (lc, rc) in words.items():
            size = norm[x] * (norm[y] * norm[z])
            gap = abs(lc - rc) * size
            block = blocks.setdefault((ops[x].offset, ops[y].offset, ops[z].offset), [0.0, 0.0, []])
            block[0] += gap
            block[1] += peak((lc, rc)) * size
            block[2].append((gap, (x, y, z)))
        worst = list(blocks.items())
        offsets, (residual, _, terms) = worst[_argpeak([b[0] for _, b in worst])]
        word = terms[_argpeak([gap for gap, _ in terms])][1]
        levels = [_argpeak(inner[s]) for s in word]
        found.append((residual, peak(b[1] for _, b in worst), list(offsets), levels, list(word)))
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
    ops, delta, eps, _ = _symbols(rep, hc)
    entries = []
    for g in ("a", "a+", "N", "1"):
        terms = delta[g]
        target = {(ops[g].offset,): ops[g].weights}
        left = tensor_blocks([(t * eps[s2], (ops[s1],)) for t, (s1, s2) in terms], rep.dim)
        right = tensor_blocks([(t * eps[s1], (ops[s2],)) for t, (s1, s2) in terms], rep.dim)
        entries.append(CheckEntry(f"counit left {g}", _residual(left, target), tol))
        entries.append(CheckEntry(f"counit right {g}", _residual(right, target), tol))
    metadata = {"params": rep.params.as_dict(), "dim": rep.dim}
    return CheckReport("hopf-counit", tuple(entries), metadata)


def check_antipode(hc: HopfCoefficients, rep: FockRep, tol: float = 1e-10) -> CheckReport:
    """Mutual equality m(id (x) S)D(g) = m(S (x) id)D(g) on the generators.

    S(a) = -c11 a, S(a+) = -c10 a+, S(N) = c12 N + c13, and a factor
    base^(s N) goes to the twist base^(s c13) base^(-s c12 N).  The
    affine rule on N and the twists use opposite signs of c12; the
    mutual-equality identity on the ladder generators and the exact
    2*gamma closure gap on N both depend on this pairing.  The closure
    gaps against eps(g)*1 go to metadata["axiom_closure"] as
    diagnostics; for g = N the gap equals 2*|gamma| exactly.
    """
    ops, delta, eps, factors = _symbols(rep, hc)
    one, a, ad, n_op = (ops[s] for s in ("1", "a", "a+", "N"))
    neg_c10, neg_c11 = -hc.c10, -hc.c11
    sops = {
        "1": one,
        "a": Shift(a.offset, tuple([neg_c11 * w for w in a.weights])),
        "a+": Shift(ad.offset, tuple([neg_c10 * w for w in ad.weights])),
        "N": Shift(0, tuple([hc.c12 * n + hc.c13 * u for n, u in zip(n_op.weights, one.weights)])),
    }
    for f, (base, ln, s) in factors.items():
        pre, e = base ** (s * hc.c13), -s * hc.c12
        twist = checked_exps([e * x * ln for x in n_op.weights])
        sops[f] = Shift(0, tuple([pre * v for v in twist]))
    entries = []
    closure = {}
    for g in ("a", "a+", "N", "1"):
        terms = delta[g]
        m_id_s = tensor_blocks([(t, (ops[s1] @ sops[s2],)) for t, (s1, s2) in terms], rep.dim)
        m_s_id = tensor_blocks([(t, (sops[s1] @ ops[s2],)) for t, (s1, s2) in terms], rep.dim)
        entries.append(CheckEntry(f"antipode mutual {g}", _residual(m_id_s, m_s_id), tol))
        closure[g] = _residual(m_id_s, {(0,): [eps[g]] * rep.dim})
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

    ops, delta, _, _ = _symbols(rep, hc)
    delta_a, delta_ad = ([(t, (ops[s1], ops[s2])) for t, (s1, s2) in delta[g]] for g in ("a", "a+"))

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
