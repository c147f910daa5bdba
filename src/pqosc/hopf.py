"""Coproduct coefficient system and its numerical verification.

The algebra admits a coproduct / counit / antipode ansatz

    D(a+) = c1 a+ (x) p^(-a1 N) + c2 q^(a2 N) (x) a+
    D(a)  = c3 a  (x) p^(-a3 N) + c4 q^(a4 N) (x) a
    D(N)  = c5 N (x) 1 + c6 1 (x) N + gamma 1 (x) 1
    eps(a+) = c7,  eps(a) = c8,  eps(N) = c9
    S(a+) = -c10 a+,  S(a) = -c11 a,  S on N affine via c12, c13

whose constants are pinned by the structure axioms.  With the symmetric
split a1 = a2 = a3 = a4 = alpha/2 the solution is

    A     = (q/p)**(alpha*l/2)
    gamma = ln(R) / (alpha * ln(p*q)),
    R     = (q**b1 - A*q**b2) / (p**(-b1) - A*p**(-b2))
    c1 = p**(-a1*gamma), c2 = q**(a2*gamma), likewise c3, c4
    c5 = c6 = 1, c7 = c8 = 0, c9 = -gamma,
    c10 = c11 = c12 = -1, c13 = 0.

gamma exists only when R > 0; R <= 0 raises GammaUndefinedError (for
instance p = q with b1 != b2 gives R = -q**(b1+b2) < 0, and b1 - b2 = l
gives R < 0 whenever A falls between p**(-l) and q**l, which at
alpha = 1 it always does, being their geometric mean).

The checks evaluate everything on tensor products of truncated matrix
representations: coassociativity and the counit axiom on the
generators, the homomorphism property on the twisted commutation
relation (which requires b1 - b2 = l so the representation satisfies
the relation), and the antipode mutual-equality identity.  The full
antipode axiom m(id (x) S)D(h) = eps(h) 1 visibly fails on these
constants (for N the two sides differ by exactly 2*gamma); that gap is
reported as a diagnostic, never asserted.

Every one-site operator is a weighted shift (fock.Shift), so a tensor
product of them is the outer product of their weight vectors under the
tuple of their offsets.  The checks run on these: the three-site
coassociativity residual costs O(dim^3) time and memory, the interior
projector is a cut on the input levels, and no dense d^k x d^k matrix is
built; coproduct_matrix densifies on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import DeformationParams, require_nonzero_alpha, validate
from .report import CheckEntry, CheckReport
from .fock import FockRep, Shift, dense_matrix, shift_levels


class GammaUndefinedError(ArithmeticError):
    """The scalar equation for gamma has no real solution (R <= 0)."""


class ADegenerateError(ArithmeticError):
    """The denominator of the R ratio vanishes."""


class Beta1Beta2MismatchError(ValueError):
    """The relation check needs beta1 - beta2 = l."""


@dataclass(frozen=True)
class HopfParams:
    """Algebra data for the coefficient solve: bases, slope, step, offsets."""

    p: float
    q: float
    alpha: float
    l: float
    beta1: float
    beta2: float

    def base_params(self) -> DeformationParams:
        """Offset-free deformation tuple used to build representations."""
        return DeformationParams(self.p, self.q, self.alpha, 0.0, self.l)

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "alpha": self.alpha,
            "l": self.l,
            "beta1": self.beta1,
            "beta2": self.beta2,
        }


def validate_hopf(p, q, alpha, l, beta1, beta2) -> HopfParams:
    validate(p, q, alpha, 0.0, l)
    beta1, beta2 = float(beta1), float(beta2)
    if not (math.isfinite(beta1) and math.isfinite(beta2)):
        raise ValueError(f"offsets must be finite, got beta1={beta1}, beta2={beta2}")
    return HopfParams(float(p), float(q), float(alpha), float(l), beta1, beta2)


@dataclass(frozen=True)
class HopfCoefficients:
    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    A: float
    gamma: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    c7: float
    c8: float
    c9: float
    c10: float
    c11: float
    c12: float
    c13: float

    def as_dict(self) -> dict:
        return {
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "alpha3": self.alpha3,
            "alpha4": self.alpha4,
            "A": self.A,
            "gamma": self.gamma,
            **{f"c{i}": getattr(self, f"c{i}") for i in range(1, 14)},
        }


def solve_coefficients(hp: HopfParams) -> HopfCoefficients:
    """Solve the constraint system for the symmetric split a_i = alpha/2."""
    params = hp.base_params()
    require_nonzero_alpha(params)
    lp = math.log(hp.p)
    lq = math.log(hp.q)

    A = math.exp(0.5 * hp.alpha * hp.l * (lq - lp))
    den = math.exp(-hp.beta1 * lp) - A * math.exp(-hp.beta2 * lp)
    num = math.exp(hp.beta1 * lq) - A * math.exp(hp.beta2 * lq)
    scale = max(1.0, math.exp(-hp.beta1 * lp), A * math.exp(-hp.beta2 * lp))
    if abs(den) < 1e-14 * scale:
        raise ADegenerateError(f"p**(-beta1) - A*p**(-beta2) = {den:.3g} vanishes")
    R = num / den
    if R <= 0.0:
        raise GammaUndefinedError(
            f"(p*q)**(alpha*gamma) = {R:.6g} <= 0 has no real solution "
            f"(p={hp.p}, q={hp.q}, alpha={hp.alpha}, l={hp.l}, "
            f"beta1={hp.beta1}, beta2={hp.beta2})"
        )
    gamma = math.log(R) / (hp.alpha * (lp + lq))

    half = 0.5 * hp.alpha
    return HopfCoefficients(
        alpha1=half,
        alpha2=half,
        alpha3=half,
        alpha4=half,
        A=A,
        gamma=gamma,
        c1=math.exp(-half * gamma * lp),
        c2=math.exp(half * gamma * lq),
        c3=math.exp(-half * gamma * lp),
        c4=math.exp(half * gamma * lq),
        c5=1.0,
        c6=1.0,
        c7=0.0,
        c8=0.0,
        c9=-gamma,
        c10=-1.0,
        c11=-1.0,
        c12=-1.0,
        c13=0.0,
    )


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def check_constraints(hc: HopfCoefficients, hp: HopfParams, tol: float = 1e-12) -> CheckReport:
    """Residuals of every scalar equality the coefficient system satisfies."""
    p, q, alpha, l = hp.p, hp.q, hp.alpha, hp.l
    g = hc.gamma
    pairs = [
        ("c1 = p^-a1*gamma", hc.c1, p ** (-hc.alpha1 * g)),
        ("c2 = q^a2*gamma", hc.c2, q ** (hc.alpha2 * g)),
        ("c3 = p^-a3*gamma", hc.c3, p ** (-hc.alpha3 * g)),
        ("c4 = q^a4*gamma", hc.c4, q ** (hc.alpha4 * g)),
        ("c5 = 1", hc.c5, 1.0),
        ("c6 = 1", hc.c6, 1.0),
        ("c7 = 0", hc.c7, 0.0),
        ("c8 = 0", hc.c8, 0.0),
        ("c9 = -gamma", hc.c9, -g),
        ("c10 = -1", hc.c10, -1.0),
        ("c11 = -1", hc.c11, -1.0),
        ("c12 = -1", hc.c12, -1.0),
        ("c13 = 0", hc.c13, 0.0),
        ("alpha1 = alpha3", hc.alpha1, hc.alpha3),
        ("alpha2 = alpha4", hc.alpha2, hc.alpha4),
        ("A = p^-a3l q^a2l", hc.A, p ** (-hc.alpha3 * l) * q ** (hc.alpha2 * l)),
        ("A = p^-a1l q^a4l", hc.A, p ** (-hc.alpha1 * l) * q ** (hc.alpha4 * l)),
        ("A = (q/p)^(alpha l/2)", hc.A, (q / p) ** (0.5 * alpha * l)),
        ("c1 c3 = p^-alpha gamma", hc.c1 * hc.c3, p ** (-alpha * g)),
        ("c2 c4 = q^alpha gamma", hc.c2 * hc.c4, q ** (alpha * g)),
        (
            "gamma equation cross-multiplied",
            (p * q) ** (alpha * g) * (p ** (-hp.beta1) - hc.A * p ** (-hp.beta2)),
            q ** hp.beta1 - hc.A * q ** hp.beta2,
        ),
    ]
    entries = tuple(CheckEntry(label, _rel(a, b), tol) for label, a, b in pairs)
    metadata = {
        "hopf_params": hp.as_dict(),
        "A": hc.A,
        "gamma": g,
        # reported for reference: the printed variant of the second product
        "c1*c4": hc.c1 * hc.c4,
        "q^alpha*gamma": q ** (alpha * g),
    }
    return CheckReport("hopf-constraints", entries, metadata)


# ---------------------------------------------------------------------------
# Tensor-product evaluation
# ---------------------------------------------------------------------------

_EXP_SYMBOLS = ("G1", "H2", "G3", "H4")

# An operator on n sites is a sum of tensor products of weighted shifts,
# stored as {offset tuple: weights}, the weights an n-dimensional array
# indexed by the input levels (k_1, ..., k_n).  Entry (k + offset, k) of
# the dense matrix is weights[k]; terms with different offset tuples
# never share an entry, so sums and comparisons go offset by offset.
Terms = dict[tuple, np.ndarray]


def _add(acc: Terms, key: tuple, w: np.ndarray) -> None:
    acc[key] = acc[key] + w if key in acc else w


def _one_site(terms) -> Terms:
    """Sum of (coef, Shift) pairs, in order."""
    out: Terms = {}
    for coef, shift in terms:
        _add(out, (shift.offset,), coef * shift.weights)
    return out


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
        if diff.size == 0:
            continue
        for w in (lw, rw):
            if isinstance(w, np.ndarray):
                scale = max(scale, float(np.max(np.abs(w[inner]))))
        i = int(np.argmax(diff))
        peaks.append((float(diff.flat[i]), key, np.unravel_index(i, diff.shape)))
    if not peaks:
        return 0.0, scale, None, None
    residual, key, levels = peaks[int(np.argmax([p[0] for p in peaks]))]
    return residual, scale, [int(o) for o in key], [int(k) for k in levels]


class _HopfEvaluator:
    """Weighted-shift realization of the coproduct/counit/antipode rules.

    The exponential factors are graded over the representation lattice:
    the slot `alpha*N` carries exponent x_k, so p^(-a1 N) becomes
    diag(p^(-(a1/alpha) x_k)), which for a1 = alpha/2 is the half
    grading diag(p^(-x_k/2)).  A tensor product of shifts is the outer
    product of their weights under the tuple of their offsets.  Every
    product is formed as coef * (A * (B * C)), the order in which the
    dense Kronecker product multiplies, so the residuals equal those of
    the dense tensor-product matrices bit for bit.
    """

    def __init__(self, rep: FockRep, hc: HopfCoefficients):
        require_nonzero_alpha(rep.params)
        self.rep = rep
        self.hc = hc
        p, q = rep.params.p, rep.params.q
        self.p, self.q = p, q
        lp, lq = math.log(p), math.log(q)
        xt = rep.x_lattice / rep.params.alpha  # lattice carried by a bare N exponent
        one, a, ad, n_op = (rep.ops[s] for s in ("1", "a", "a+", "N"))

        self.ops = {
            "1": one,
            "a": a,
            "a+": ad,
            "N": n_op,
            "G1": Shift(0, np.exp(-hc.alpha1 * xt * lp)),
            "H2": Shift(0, np.exp(hc.alpha2 * xt * lq)),
            "G3": Shift(0, np.exp(-hc.alpha3 * xt * lp)),
            "H4": Shift(0, np.exp(hc.alpha4 * xt * lq)),
        }

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

        # Antipode shifts.  The affine rule on N and the twist on the
        # exponential factors use opposite signs of c12; the mutual-
        # equality identity on the ladder generators and the exact
        # 2*gamma closure gap on N both depend on this pairing.
        self.sops = {
            "1": one,
            "a": Shift(a.offset, -hc.c11 * a.weights),
            "a+": Shift(ad.offset, -hc.c10 * ad.weights),
            "N": Shift(0, hc.c12 * n_op.weights + hc.c13 * one.weights),
            "G1": Shift(0, p ** (-hc.alpha1 * hc.c13) * np.exp(hc.alpha1 * hc.c12 * xt * lp)),
            "H2": Shift(0, q ** (hc.alpha2 * hc.c13) * np.exp(-hc.alpha2 * hc.c12 * xt * lq)),
            "G3": Shift(0, p ** (-hc.alpha3 * hc.c13) * np.exp(hc.alpha3 * hc.c12 * xt * lp)),
            "H4": Shift(0, q ** (hc.alpha4 * hc.c13) * np.exp(-hc.alpha4 * hc.c12 * xt * lq)),
        }

    def two_site(self, gen: str) -> Terms:
        out: Terms = {}
        for t, (s1, s2) in self.delta[gen]:
            x, y = self.ops[s1], self.ops[s2]
            _add(out, (x.offset, y.offset), t * np.multiply.outer(x.weights, y.weights))
        return out

    def _three_site(self, gen: str, expand_slot: int) -> Terms:
        out: Terms = {}
        for t, (s1, s2) in self.delta[gen]:
            if expand_slot == 2:
                terms = [(t * t2, (s1, u1, u2)) for t2, (u1, u2) in self.delta[s2]]
            else:
                terms = [(t * t1, (u1, u2, s2)) for t1, (u1, u2) in self.delta[s1]]
            for coef, symbols in terms:
                x, y, z = (self.ops[s] for s in symbols)
                w = coef * np.multiply.outer(x.weights, np.multiply.outer(y.weights, z.weights))
                _add(out, (x.offset, y.offset, z.offset), w)
        return out

    def coassoc_residual(self, gen: str):
        """_compare of the two sides, on the interior (top two levels of each site cut)."""
        left = self._three_site(gen, expand_slot=2)
        right = self._three_site(gen, expand_slot=1)
        return _compare(left, right, keep=max(self.rep.dim - 2, 0))

    def counit_residuals(self, gen: str) -> tuple[float, float]:
        target = _one_site([(1.0, self.ops[gen])])
        left = _one_site((t * self.eps[s2], self.ops[s1]) for t, (s1, s2) in self.delta[gen])
        right = _one_site((t * self.eps[s1], self.ops[s2]) for t, (s1, s2) in self.delta[gen])
        return _compare(left, target)[0], _compare(right, target)[0]

    def antipode_sides(self, gen: str) -> tuple[Terms, Terms]:
        m_id_s = _one_site((t, self.ops[s1] @ self.sops[s2]) for t, (s1, s2) in self.delta[gen])
        m_s_id = _one_site((t, self.sops[s1] @ self.ops[s2]) for t, (s1, s2) in self.delta[gen])
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
    """
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
    ones = ev.ops["1"].weights
    entries = []
    closure = {}
    for g in ("a", "a+", "N", "1"):
        m_id_s, m_s_id = ev.antipode_sides(g)
        entries.append(CheckEntry(f"antipode mutual {g}", _compare(m_id_s, m_s_id)[0], tol))
        closure[g] = _compare(m_id_s, {(0,): ev.eps[g] * ones})[0]
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
    satisfies the relation being transported.
    """
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
    pw, qw = rep.ops["P"].weights, rep.ops["Q"].weights
    rhs = {(0, 0): coef_p * np.multiply.outer(pw, pw) - coef_q * np.multiply.outer(qw, qw)}
    residual = _compare(lhs, rhs, keep=max(rep.dim - 2, 0))[0]

    entries = (CheckEntry("homomorphism twisted relation", residual, tol),)
    metadata = {
        "hopf_params": hp.as_dict(),
        "dim": rep.dim,
        "A": hc.A,
        "gamma": hc.gamma,
        "interior_levels": 2,
    }
    return CheckReport("hopf-homomorphism", entries, metadata)
