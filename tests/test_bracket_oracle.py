"""The bracket against a 60-digit decimal reference, up to the singular surface.

validate admits (p*q)**l down to |l ln(pq)| = 1e-12 from 1, where
p**-x - q**x and p**-l - q**l both cancel.  The reference evaluates that
quotient in 60-digit decimal arithmetic at the exact binary values of
the inputs, so its own cancellation costs at most 12 of its 60 digits.
"""

import math
from decimal import Decimal, localcontext

import pytest

from pqosc import bracket, check_realization, check_relations, spectrum_table, validate
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


@pytest.mark.parametrize(
    "p, q, l, x",
    [
        # exp((x - l)(ln q - ln p)/2) alone exceeds the double range
        (math.exp(-0.5), math.e, -700.0, 350.0),
        # exp(...) * sinh(x L/2) exceeds it before the division brings it back
        (math.exp(300.0), math.exp(700.0), -0.5, 1.0),
        # exp(...) is subnormal
        (math.e, math.exp(-0.6), -200.0, 700.0),
    ],
)
def test_bracket_where_its_factors_leave_the_double_range(p, q, l, x):
    params = validate(p, q, 1.0, 0.0, l)
    assert relative_error(bracket(x, params), reference_bracket(x, p, q, l)) <= 1e-13


def test_checks_pass_next_to_the_singular_surface():
    params = validate(2.0, (1.0 + 1e-11) / 2.0, 1.0, 0.0, 1.0)
    rep = build(params, 16)
    maxweight = float(max(abs(w) for w in rep.weights))
    report = check_relations(rep, "grading", 1e-11 * maxweight)
    assert report.passed, report.lines()
    spectrum_table(params, 16)  # raises ArithmeticError when its three forms disagree
    report = check_realization(params, [float(e) for e in range(-3, 6)])
    assert report.passed, report.lines()
