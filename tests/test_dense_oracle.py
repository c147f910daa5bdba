"""The weighted-shift checks against dense np.kron matrices at small dims.

Counit and antipode keep the dense term and product order, so their
residuals must match exactly.  Coassociativity is decided on symbol
words: its residual bounds the dense interior residual, equals it on
one-word blocks in exact arithmetic, and must agree with it within four
units of 2**-52 of the entry scale, with the same pass or fail.  The
homomorphism check and the relation residuals may sum two products in
another order than BLAS does; they must agree within 1e-14 of the
compared entries' scale.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from pqosc import (
    HopfCoefficients,
    check_antipode,
    check_coassociativity,
    check_counit,
    check_homomorphism,
    check_relations,
    solve_coefficients,
    validate,
    validate_hopf,
)
from pqosc import hopf
from pqosc.fock import build
from pqosc.hopf import tensor_blocks

import dense_oracle

GRID = [(p, q) for p in (0.5, 1.5, 2.0) for q in (0.3, 0.9, 3.0) if abs(p * q - 1.0) > 1e-9]
# Every field is perturbed on its own: G1, H2, G3 and H4 share a diagonal
# only where their exponents are equal, and a field that is zero at the
# solve (c7, c8, c13) must move too, or a sign error in its term goes unseen.
PERTURBED = tuple(f.name for f in fields(HopfCoefficients))


def hopf_case(p, q, beta, dim):
    hp = validate_hopf(p, q, 1.0, 1.0, beta, beta)
    return solve_coefficients(hp), build(hp.base_params(), dim, x0=0.0)


# The word residual and the dense one round differently: within this
# many units of 2**-52 of the generator's entry scale.
COASSOC_ULPS = 4


def assert_hopf_matches_dense(hc, rep):
    dense = dense_oracle.DenseHopf(rep, hc)
    coassoc = check_coassociativity(rep, hc)
    want, scales = dense.coassociativity()
    scale = coassoc.metadata["entry_scale"]
    for e, residual, dense_scale, g in zip(coassoc.entries, want, scales, ("a", "a+", "N")):
        assert abs(e.residual - residual) <= COASSOC_ULPS * 2.0**-52 * scale[g], g
        assert e.passed == (residual <= e.tol), g
        if g == "N":  # several words share the N block: the word scale bounds the dense one
            assert dense_scale <= scale[g] * (1 + COASSOC_ULPS * 2.0**-52)
        else:  # one word per block: the largest compared entry bit for bit
            assert scale[g] == dense_scale, g
    counit = check_counit(hc, rep)
    assert [e.residual for e in counit.entries] == dense.counit()
    antipode = check_antipode(hc, rep)
    mutual, closure = dense.antipode()
    assert [e.residual for e in antipode.entries] == mutual
    assert antipode.metadata["axiom_closure"] == closure


# dim 6 keeps the plain "p-q" ids; dims 3 and 4 leave interiors of one and
# two levels, the edge of the interior cut.
@pytest.mark.parametrize(
    "p,q,dim",
    [pytest.param(p, q, dim, id=f"{p}-{q}" + ("" if dim == 6 else f"-dim{dim}"))
     for dim in (6, 3, 4) for p, q in GRID],
)
def test_acceptance_grid_matches_dense(p, q, dim):
    assert_hopf_matches_dense(*hopf_case(p, q, 0.7, dim))


@pytest.mark.parametrize("field", PERTURBED)
def test_perturbed_coefficients_match_dense(field):
    hc, rep = hopf_case(2.0, 3.0, 0.7, 6)
    value = getattr(hc, field)
    assert_hopf_matches_dense(replace(hc, **{field: value * 1.01 if value else 0.01}), rep)


def test_dim_eight_matches_dense():
    assert_hopf_matches_dense(*hopf_case(0.5, 3.0, 2.0, 8))


def densified(blocks: dict, d: int, sites: int) -> np.ndarray:
    """tensor_blocks' layout, read entry by entry: the entry of input
    (k1, k2, ...) in block (o1, o2, ...) sits at row index (k1+o1, k2+o2,
    ...), column index (k1, k2, ...) of the Kronecker product, both
    row-major; an entry whose row leaves the truncation must be zero."""
    shape = (d,) * sites
    got = np.zeros((d**sites, d**sites))
    for offsets, entries in blocks.items():
        assert len(entries) == d**sites
        for i, v in enumerate(entries):
            rows = [k + o for k, o in zip(np.unravel_index(i, shape), offsets)]
            if all(0 <= r < d for r in rows):
                got[np.ravel_multi_index(rows, shape), i] += v
            else:
                assert v == 0.0, (offsets, i)
    return got


def test_tensor_blocks_layout_matches_kron():
    """One, two and three sites, each bit for bit against the dense sum of
    Kronecker products: a one-site sum (the counit's), the coproduct, and
    both three-site expansions of the coproduct."""
    hc, rep = hopf_case(2.0, 3.0, 0.7, 5)
    d = rep.dim
    ops, delta, eps, _ = hopf._symbols(rep, hc)
    dense = dense_oracle.DenseHopf(rep, hc)
    for gen in ("1", "a", "a+", "N"):
        terms = delta[gen]
        one_site = [(t * eps[s2], (ops[s1],)) for t, (s1, s2) in terms]
        want = np.zeros((d, d))
        for t, (s,) in one_site:
            want += t * dense_oracle.matrix(s)
        assert np.array_equal(densified(tensor_blocks(one_site, d), d, 1), want), gen

        two_site = [(t, (ops[s1], ops[s2])) for t, (s1, s2) in terms]
        assert np.array_equal(densified(tensor_blocks(two_site, d), d, 2), dense.two_site(gen)), gen

        right = [(t * t2, (ops[s1], ops[u1], ops[u2]))
                 for t, (s1, s2) in terms for t2, (u1, u2) in delta[s2]]
        left = [(t * t1, (ops[u1], ops[u2], ops[s2]))
                for t, (s1, s2) in terms for t1, (u1, u2) in delta[s1]]
        for slot, three_site in ((2, right), (1, left)):
            got = densified(tensor_blocks(three_site, d), d, 3)
            assert np.array_equal(got, dense.three_site(gen, slot)), (gen, slot)


# The two-site products multiply shifts before the Kronecker product, so
# their rounding differs from the dense order at some dims, 4 and 12 among them.
@pytest.mark.parametrize("dim", (4, 8, 12))
def test_homomorphism_matches_dense(dim):
    hp = validate_hopf(0.5, 3, 2, 1, 1.0, 0.0)
    hc = solve_coefficients(hp)
    rep = build(hp.base_params(), dim, x0=0.0)
    want, scale = dense_oracle.DenseHopf(rep, hc).homomorphism(rep, hc, hp)
    got = check_homomorphism(rep, hc, hp).max_residual()
    assert abs(got - want) <= 1e-14 * scale


@pytest.mark.parametrize("mode", ("grading", "literal"))
@pytest.mark.parametrize("args", [(2, 3, 1, 0, 1), (0.5, 3, 2, 0, 1), (1.5, 0.3, 0.5, 0, 2)])
def test_relations_match_dense(mode, args):
    rep = build(validate(*args), 8)
    want, scale = dense_oracle.relations(rep, mode)
    got = [e.residual for e in check_relations(rep, mode).entries]
    assert np.all(np.abs(np.subtract(got, want)) <= 1e-14 * scale)


def test_dense_views_match_weights():
    rep = build(validate(2, 3, 1, 0, 1), 7)
    dense = dense_oracle.one_site(rep)
    for symbol in ("1", "a", "a+", "N", "P", "Q"):
        assert np.array_equal(dense_oracle.matrix(rep.generator(symbol)), dense[symbol])


def test_worst_location_points_at_dense_entry():
    hc, rep = hopf_case(2.0, 3.0, 0.7, 6)
    bad = replace(hc, c4=hc.c4 * 1.01)
    report = check_coassociativity(rep, bad)
    worst = report.metadata["worst"]
    assert worst["residual"] == report.max_residual() > 0.0
    dense = dense_oracle.DenseHopf(rep, bad)
    diff = dense.three_site(worst["generator"], 2) - dense.three_site(worst["generator"], 1)
    shape = (rep.dim,) * 3
    col = np.ravel_multi_index(worst["basis"], shape)
    row = np.ravel_multi_index(np.add(worst["basis"], worst["offset"]), shape)
    assert abs(diff[row, col]) == pytest.approx(worst["residual"], rel=1e-12)
    assert worst["word"] == ["H4", "H4", "a"]
