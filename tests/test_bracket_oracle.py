"""The bracket against a 60-digit decimal reference, up to the singular surface.

validate admits (p*q)**l down to |l ln(pq)| = 1e-12 from 1, where
p**-x - q**x and p**-l - q**l both cancel.  The reference evaluates that
quotient in 60-digit decimal arithmetic at the exact binary values of
the inputs, so its own cancellation costs at most 12 of its 60 digits.
"""

import math
import tracemalloc
from decimal import Decimal, localcontext

import pytest

from pqosc import bracket, brackets, check_realization, check_relations, spectrum_table, validate
from pqosc.fock import build

# |pq - 1| from 1e-2 down to 1e-12; validate rejects 1 - 1e-12 (|ln pq| < 1e-12).
DELTAS = [10.0 ** -e for e in range(2, 13)] + [-(10.0 ** -e) for e in range(2, 12)]
XS = [0.5 * i for i in range(33)]  # integer and half-integer x in 0..16


def reference_bracket(x: float, p: float, q: float, l: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        lp, lq = Decimal(p).ln(), Decimal(q).ln()
        x, l = Decimal(x), Decimal(l)
        return ((-x * lp).exp() - (x * lq).exp()) / ((-l * lp).exp() - (l * lq).exp())


def relative_error(got: float, want: Decimal) -> float:
    if want == 0:
        return 0.0 if got == 0.0 else math.inf
    with localcontext() as ctx:
        ctx.prec = 60
        return float(abs((Decimal(got) - want) / want))


@pytest.mark.parametrize("p", [2.0, 0.5])
@pytest.mark.parametrize("delta", DELTAS)
def test_bracket_near_singular_surface(p, delta):
    q = (1.0 + delta) / p
    params = validate(p, q, 1.0, 0.0, 1.0)
    worst = max(relative_error(bracket(x, params), reference_bracket(x, p, q, 1.0)) for x in XS)
    assert worst <= 1e-14


FACTOR_CASES = [
    # exp((x - l)(ln q - ln p)/2) alone exceeds the double range
    (math.exp(-0.5), math.e, -700.0, 350.0),
    # exp(...) * sinh(x L/2) exceeds it before the division brings it back
    (math.exp(300.0), math.exp(700.0), -0.5, 1.0),
    # exp(...) is subnormal
    (math.e, math.exp(-0.6), -200.0, 700.0),
]


@pytest.mark.parametrize("p, q, l, x", FACTOR_CASES)
def test_bracket_where_its_factors_leave_the_double_range(p, q, l, x):
    params = validate(p, q, 1.0, 0.0, l)
    assert relative_error(bracket(x, params), reference_bracket(x, p, q, l)) <= 1e-13


def outcome(fn):
    """The exact bits of fn()'s values, or the type and message of what it raised."""
    try:
        return [v.hex() for v in fn()]
    except ArithmeticError as exc:
        return type(exc).__name__, str(exc)


def lattice(start, step, count, shift=None):
    """The points brackets evaluates, in its order: x_k, then x_k + shift."""
    xs = [start + step * k for k in range(count)]
    return xs if shift is None else [y for x in xs for y in (x, x + shift)]


def same_as_scalar(params, start, step, count, shift=None) -> bool:
    """brackets' values are the per-point loop's, and its xs are start + step*k."""
    def values():
        xs, got = brackets(start, step, count, params, shift)
        assert [x.hex() for x in xs] == [x.hex() for x in lattice(start, step, count)]
        return got

    return outcome(values) == outcome(
        lambda: [bracket(x, params) for x in lattice(start, step, count, shift)]
    )


@pytest.mark.parametrize("p", [2.0, 0.5])
def test_brackets_is_bracket_near_the_singular_surface(p):
    for delta in DELTAS:
        params = validate(p, (1.0 + delta) / p, 1.0, 0.0, 1.0)
        for shift in (None, 1.0):
            assert same_as_scalar(params, 0.0, 0.5, len(XS), shift), (delta, shift)  # the points XS


@pytest.mark.parametrize("p, q, l, x", FACTOR_CASES)
def test_brackets_is_bracket_where_its_factors_leave_the_double_range(p, q, l, x):
    params = validate(p, q, 1.0, 0.0, l)
    for start, step, count, shift in ((x, 1.0, 1, None), (x - 1.0, 0.5, 4, None),
                                      (0.0, x, 2, None), (0.0, 1.0, 2, x)):
        assert same_as_scalar(params, start, step, count, shift), (start, step, count, shift)


@pytest.mark.parametrize(
    "point, start, step, count, shift",
    [
        # 637 ln 3 = 699.8 passes the guard and 638 ln 3 = 700.9 does not
        ((2.0, 3.0, 1.0), 0.0, 1.0, 638, None),
        ((2.0, 3.0, 1.0), 0.0, 1.0, 701, None),
        ((2.0, 3.0, 1.0), 0.0, -0.5, 1400, None),
        ((2.0, 3.0, 1.0), 700.0, -700.0, 2, None),
        # x_636 + 1 = 637 passes, x_637 + 1 = 638 does not, although x_637 does
        ((2.0, 3.0, 1.0), 0.0, 1.0, 637, 1.0),
        ((2.0, 3.0, 1.0), 0.0, 1.0, 638, 1.0),
        # x_6 + 50 = 650 fails before x_7 = 700
        ((2.0, 3.0, 1.0), 0.0, 100.0, 8, 50.0),
        # inside the guard, but the values from x = -457 down exceed the double range
        ((3.0, 0.5, 300.0), -440.0, -5.0, 8, None),
        ((2.0, 0.5000000005, 0.01), -1000.0, -0.5, 20, None),
        ((2.0, 0.5000000005, 0.01), -1000.0, -0.5, 20, 0.01),
        # NaN points, alone and before an out-of-range one
        ((2.0, 3.0, 1.0), 1.0, 1.0, 2, math.nan),
        ((2.0, 3.0, 1.0), 1.0, 799.0, 2, math.nan),
        ((2.0, 3.0, 1.0), math.nan, 1.0, 3, None),
        ((2.0, 3.0, 1.0), 0.0, 1.0, 0, None),
        ((2.0, 3.0, 1.0), 0.0, 1.0, 0, 1.0),
    ],
    ids=["below-edge", "across-edge", "negative-across-edge", "edge-first", "shift-below-edge",
         "shift-across-edge", "shift-first", "value-overflow", "value-overflow-near-singular",
         "shift-value-overflow", "nan", "nan-then-out-of-range", "leading-nan", "empty",
         "empty-shift"],
)
def test_brackets_is_bracket_across_the_guard(point, start, step, count, shift):
    """Bit for bit, and where the loop raises, the same error with the same message."""
    p, q, l = point
    assert same_as_scalar(validate(p, q, 1.0, 0.0, l), start, step, count, shift)


@pytest.mark.parametrize(
    "point, start, step, count, shift, raises",
    [
        ((2.0, 3.0, 1.0), 0.0, 1.0, 638, None, False),
        ((2.0, 3.0, 1.0), 0.0, 1.0, 639, None, True),
        ((2.0, 3.0, 1.0), 0.0, 1.0, 10 ** 6, None, True),
        ((2.0, 3.0, 1.0), 3.0, -2.0, 10 ** 6, None, True),
        ((2.0, 3.0, 1.0), 700.0, -1.0, 100, None, True),
        ((2.0, 3.0, 1.0), 0.0, 1.0, 0, None, False),
        ((3.0, 0.5, 300.0), -440.0, -5.0, 8, None, True),
        ((2.0, 0.5000000005, 0.01), -1000.0, -0.5, 10 ** 6, None, True),
        ((2.0, 3.0, 1.0), math.nan, 1.0, 3, None, False),
        ((2.0, 3.0, 1.0), 0.0, 1.0, 10 ** 6, 1.0, True),
        ((2.0, 3.0, 1.0), 0.0, 100.0, 10 ** 6, 50.0, True),
    ],
    ids=["below-edge", "across-edge", "far-across-edge", "negative-step", "edge-first",
         "empty", "value-overflow", "value-overflow-near-singular", "nan", "shift", "shift-first"],
)
def test_brackets_raises_at_the_first_failing_point(point, start, step, count, shift, raises):
    """The first failing point's error, from a walk that forms no point past it."""
    params = validate(point[0], point[1], 1.0, 0.0, point[2])
    # the first 2000 points hold the first failure
    want = outcome(lambda: [bracket(x, params) for x in lattice(start, step, min(count, 2000), shift)])
    tracemalloc.start()
    try:
        got = outcome(lambda: brackets(start, step, count, params, shift)[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want and isinstance(want, tuple) == raises
    assert peak < 1_000_000


def test_checks_pass_next_to_the_singular_surface():
    params = validate(2.0, (1.0 + 1e-11) / 2.0, 1.0, 0.0, 1.0)
    rep = build(params, 16)
    maxweight = float(max(abs(w) for w in rep.weights))
    report = check_relations(rep, "grading", 1e-11 * maxweight)
    assert report.passed, report.entries
    spectrum_table(params, 16)  # raises ArithmeticError when its three forms disagree
    report = check_realization(params, [float(e) for e in range(-3, 6)])
    assert report.passed, report.entries
