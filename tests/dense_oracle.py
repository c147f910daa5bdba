"""Dense reference for the Fock and Hopf checks, for small dims only.

Rebuilds the one-site matrices from a representation's weights, the
two- and three-site coproduct matrices with np.kron and the interior
projector as a dense diagonal matrix, and evaluates every residual as
dense matrix algebra.  The G/H diagonals and the antipode twists take
math.exp of the same exponents the library forms, so the one-site
matrices hold the library's weights bit for bit.  Three-site matrices
take 8 * dim**6 bytes each: keep dim <= 8.
"""

import math

import numpy as np


def interior_projector(dim: int, levels: int = 1) -> np.ndarray:
    """Diagonal projector zeroing the top `levels` basis levels."""
    pi = np.eye(dim)
    for k in range(max(dim - levels, 0), dim):
        pi[k, k] = 0.0
    return pi


def matrix(shift) -> np.ndarray:
    """A fock.Shift as a dense matrix: weights[k] at entry (k + offset, k)."""
    off, w = shift.offset, shift.weights
    return np.diag(w[-off:] if off < 0 else w[: len(w) - off], -off)


def one_site(rep) -> dict:
    """Dense a, a+, N, P, Q and 1 rebuilt from rep.weights and rep.params."""
    d, params = rep.dim, rep.params
    a = np.zeros((d, d))
    for k in range(1, d):
        a[k - 1, k] = math.sqrt(max(rep.weights[k], 0.0))
    x = rep.x0 + params.l * np.arange(d)
    return {
        "1": np.eye(d),
        "a": a,
        "a+": a.T.copy(),
        "N": np.diag(rep.ops["N"].weights),
        "P": np.diag(np.exp(-x * math.log(params.p))),
        "Q": np.diag(np.exp(x * math.log(params.q))),
    }


def relations(rep, mode: str) -> tuple[list, float]:
    """The four relation residuals of check_relations, and the largest |entry| compared."""
    params = rep.params
    m = one_site(rep)
    if mode == "grading":
        p_gen, q_gen = m["P"], m["Q"]
    else:
        nu = np.array(rep.ops["N"].weights)
        expo = params.alpha * nu + params.beta
        p_gen = np.diag(np.exp(-expo * math.log(params.p)))
        q_gen = np.diag(np.exp(expo * math.log(params.q)))
    a, ad, n_op = m["a"], m["a+"], m["N"]
    pi = interior_projector(rep.dim, 1)
    ql = params.q ** params.l
    pl = params.p ** (-params.l)
    terms = [a @ ad, ql * (ad @ a), pl * (ad @ a), p_gen, q_gen,
             n_op @ a, a @ n_op, params.l * a, n_op @ ad, ad @ n_op]
    residuals = [
        (a @ ad - ql * (ad @ a) - p_gen) @ pi,
        (a @ ad - pl * (ad @ a) - q_gen) @ pi,
        n_op @ a - a @ n_op + params.l * a,
        n_op @ ad - ad @ n_op - params.l * ad,
    ]
    scale = max(float(np.max(np.abs(t))) for t in terms)
    return [float(np.max(np.abs(r))) for r in residuals], scale


class DenseHopf:
    """The coproduct, counit and antipode rules on np.kron matrices."""

    def __init__(self, rep, hc):
        p, q = rep.params.p, rep.params.q
        lp, lq = math.log(p), math.log(q)
        xt = [rep.params.l * k / rep.params.alpha for k in range(rep.dim)]
        m = one_site(rep)

        def diag(pre, e, ln):
            """pre * diag(exp(e * x * ln)) over the lattice xt."""
            return pre * np.diag([math.exp(e * x * ln) for x in xt])

        self.dim = rep.dim
        self.mats = {
            "1": m["1"],
            "a": m["a"],
            "a+": m["a+"],
            "N": m["N"],
            "G1": diag(1.0, -hc.alpha1, lp),
            "H2": diag(1.0, hc.alpha2, lq),
            "G3": diag(1.0, -hc.alpha3, lp),
            "H4": diag(1.0, hc.alpha4, lq),
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
        eye = m["1"]
        self.smats = {
            "1": eye,
            "a": -hc.c11 * m["a"],
            "a+": -hc.c10 * m["a+"],
            "N": hc.c12 * m["N"] + hc.c13 * eye,
            "G1": diag(p ** (-hc.alpha1 * hc.c13), hc.alpha1 * hc.c12, lp),
            "H2": diag(q ** (hc.alpha2 * hc.c13), -hc.alpha2 * hc.c12, lq),
            "G3": diag(p ** (-hc.alpha3 * hc.c13), hc.alpha3 * hc.c12, lp),
            "H4": diag(q ** (hc.alpha4 * hc.c13), -hc.alpha4 * hc.c12, lq),
        }

    def two_site(self, gen: str) -> np.ndarray:
        d2 = self.dim ** 2
        out = np.zeros((d2, d2))
        for t, (s1, s2) in self.delta[gen]:
            out += t * np.kron(self.mats[s1], self.mats[s2])
        return out

    def three_site(self, gen: str, expand_slot: int) -> np.ndarray:
        d3 = self.dim ** 3
        out = np.zeros((d3, d3))
        for t, (s1, s2) in self.delta[gen]:
            if expand_slot == 2:
                for t2, (u1, u2) in self.delta[s2]:
                    out += t * t2 * np.kron(self.mats[s1], np.kron(self.mats[u1], self.mats[u2]))
            else:
                for t1, (u1, u2) in self.delta[s1]:
                    out += t * t1 * np.kron(self.mats[u1], np.kron(self.mats[u2], self.mats[s2]))
        return out

    def coassociativity(self) -> tuple[list, list]:
        """Per generator a, a+, N: the interior residual, and the largest
        compared |entry| of either side."""
        pi = interior_projector(self.dim, levels=2)
        pi3 = np.kron(pi, np.kron(pi, pi))
        residuals, scales = [], []
        for g in ("a", "a+", "N"):
            left, right = (self.three_site(g, slot) @ pi3 for slot in (2, 1))
            residuals.append(float(np.max(np.abs(left - right))))
            scales.append(float(max(np.max(np.abs(left)), np.max(np.abs(right)))))
        return residuals, scales

    def counit(self) -> list:
        out = []
        for g in ("a", "a+", "N", "1"):
            target = self.mats[g]
            terms = self.delta[g]
            left = sum(t * self.eps[s2] * self.mats[s1] for t, (s1, s2) in terms)
            right = sum(t * self.eps[s1] * self.mats[s2] for t, (s1, s2) in terms)
            out += [float(np.max(np.abs(left - target))), float(np.max(np.abs(right - target)))]
        return out

    def antipode(self) -> tuple[list, dict]:
        mutual, closure = [], {}
        for g in ("a", "a+", "N", "1"):
            terms = self.delta[g]
            m_id_s = sum(t * (self.mats[s1] @ self.smats[s2]) for t, (s1, s2) in terms)
            m_s_id = sum(t * (self.smats[s1] @ self.mats[s2]) for t, (s1, s2) in terms)
            mutual.append(float(np.max(np.abs(m_id_s - m_s_id))))
            closure[g] = float(np.max(np.abs(m_id_s - self.eps[g] * np.eye(self.dim))))
        return mutual, closure

    def homomorphism(self, rep, hc, hp) -> tuple[float, float]:
        """The transported-relation residual, and the largest |entry| compared."""
        p, q, alpha, l = rep.params.p, rep.params.q, rep.params.alpha, rep.params.l
        delta_a, delta_ad = self.two_site("a"), self.two_site("a+")
        products = (delta_a @ delta_ad, hc.A * (delta_ad @ delta_a))
        den = p ** (-l) - q ** l
        coef_p = (p ** (-alpha * hc.gamma)) * (p ** (-hp.beta1) - hc.A * p ** (-hp.beta2)) / den
        coef_q = (q ** (alpha * hc.gamma)) * (q ** hp.beta1 - hc.A * q ** hp.beta2) / den
        m = one_site(rep)
        rhs = coef_p * np.kron(m["P"], m["P"]) - coef_q * np.kron(m["Q"], m["Q"])
        pi = interior_projector(rep.dim, levels=2)
        pi2 = np.kron(pi, pi)
        residual = float(np.max(np.abs((products[0] - products[1] - rhs) @ pi2)))
        scale = max(float(np.max(np.abs(t @ pi2))) for t in (*products, rhs))
        return residual, scale
