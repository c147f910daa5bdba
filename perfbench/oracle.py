"""Independent 60-digit references, computed with the standard-library `decimal`.

Every float input is converted to Decimal exactly (its binary value), so the
references answer "what is the exact value at these double-precision
inputs", and the program's error is measured against that alone.  Nothing
here imports pqosc.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

PREC = 60


def _d(x) -> Decimal:
    return x if isinstance(x, Decimal) else Decimal(float(x))


class Bracket:
    """bracket(x) = (p**-x - q**x) / (p**-l - q**l) for one (p, q, l)."""

    def __init__(self, p: float, q: float, l: float):
        with localcontext() as ctx:
            ctx.prec = PREC
            self.lp = _d(p).ln()
            self.lq = _d(q).ln()
            self.l = _d(l)
            self.den = (-self.l * self.lp).exp() - (self.l * self.lq).exp()

    def __call__(self, x) -> Decimal:
        with localcontext() as ctx:
            ctx.prec = PREC
            x = _d(x)
            return ((-x * self.lp).exp() - (x * self.lq).exp()) / self.den

    def f(self, n, alpha: float, beta: float) -> Decimal:
        """Structure function f(n) = bracket(alpha*n + beta)."""
        with localcontext() as ctx:
            ctx.prec = PREC
            return self(_d(alpha) * _d(n) + _d(beta))

    def lam(self, n, alpha: float, beta: float) -> Decimal:
        """Level energy lambda_n = bracket(x) + bracket(x + l), x = alpha*n + beta."""
        with localcontext() as ctx:
            ctx.prec = PREC
            x = _d(alpha) * _d(n) + _d(beta)
            return self(x) + self(x + self.l)


def gamma(p: float, q: float, alpha: float, l: float, beta1: float, beta2: float) -> Decimal:
    """gamma = ln R / (alpha ln(pq)) with R = (q**b1 - A q**b2) / (p**-b1 - A p**-b2)."""
    with localcontext() as ctx:
        ctx.prec = PREC
        lp, lq = _d(p).ln(), _d(q).ln()
        alpha, l, b1, b2 = _d(alpha), _d(l), _d(beta1), _d(beta2)
        a = (alpha * l / 2 * (lq - lp)).exp()
        r = ((b1 * lq).exp() - a * (b2 * lq).exp()) / ((-b1 * lp).exp() - a * (-b2 * lp).exp())
        return r.ln() / (alpha * (lp + lq))

