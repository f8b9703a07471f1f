"""A 40-digit reference for |t_N|^2 of N identical cells, in decimal.

In float64, the matrix of an opaque cell carries rounding of about 1e-16
relative, and its N-th power amplifies that by up to cosh^2(mu): with cosh mu
between 1e2 and 1e4 no float64 product of cell matrices meets a 1e-10
comparison.  This module recomputes |t_N|^2 from the layers alone, with the
standard library's ``decimal`` carrying 40 significant digits.  It propagates
u = (psi, psi'/m*) across every layer of the N cells, for the two unit
starting vectors, and projects the resulting real 2x2 propagator P onto the
lead plane waves (q = k/m* in the lead):

    |t_N|^2 = 4 q^2 / ((P11 + P22)^2 q^2 + (q^2 P12 - P21)^2).

It shares no code with ``tmatrix``, so it is an independent oracle.  Being
slow (about a millisecond an energy), it is meant for the few samples that a
float64 check flags, and is imported only then.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

from .medium import CONSTANTS, CellSpec, Layer, _integer

__all__ = ["transmission"]

DIGITS = 40
_PI = Decimal("3.141592653589793238462643383279502884197169399375105820974944592")


def _series(x: Decimal, sign: int) -> tuple[Decimal, Decimal]:
    """(cos x, sin x) for sign = -1, (cosh x, sinh x) for sign = +1, by
    their Taylor series; meant for |x| <= pi."""
    x2 = x * x
    even, odd = Decimal(1), x
    term_even, term_odd = Decimal(1), x
    n = 1
    tiny = Decimal(10) ** -(DIGITS + 5)
    while abs(term_even) + abs(term_odd) > tiny:
        term_even = sign * term_even * x2 / ((2 * n - 1) * (2 * n))
        term_odd = sign * term_odd * x2 / ((2 * n) * (2 * n + 1))
        even, odd = even + term_even, odd + term_odd
        n += 1
    return even, odd


def _cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    two_pi = 2 * _PI
    return _series(x - two_pi * (x / two_pi).to_integral_value(), -1)


def _cosh_sinh(x: Decimal) -> tuple[Decimal, Decimal]:
    if x <= 1:
        return _series(x, 1)
    e = x.exp()
    return (e + 1 / e) / 2, (e - 1 / e) / 2


def _propagator(E: Decimal, layer: Layer, h2m: Decimal) -> tuple[Decimal, ...]:
    """(P11, P12, P21, P22) across the layer: ((c, m S), (-k^2 S / m, c))
    with c = cos(k d) and S = sin(k d) / k, or their hyperbolic forms."""
    m, d = Decimal(layer.mass_ratio), Decimal(layer.width)
    ksq = (E - Decimal(layer.potential)) * m / h2m
    if ksq == 0:
        c, s = Decimal(1), d
    elif ksq > 0:
        k = ksq.sqrt()
        c, s = _cos_sin(k * d)
        s = s / k
    else:
        kappa = (-ksq).sqrt()
        c, s = _cosh_sinh(kappa * d)
        s = s / kappa
    return c, m * s, -ksq * s / m, c


def transmission(cell: CellSpec, outside: Layer, N: int, E: float) -> float:
    """|t_N|^2 of N copies of ``cell`` between ``outside`` leads at energy E
    (above the lead band bottom), computed with 40 significant digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        e, h2m = Decimal(E), Decimal(CONSTANTS.hbar2_over_2m0)
        steps = {layer: _propagator(e, layer, h2m) for layer in set(cell.layers)}
        (p11, p21), (p12, p22) = (Decimal(1), Decimal(0)), (Decimal(0), Decimal(1))
        for _ in range(_integer(N, "N", 1)):
            for layer in cell.layers:
                a, b, c, d = steps[layer]
                p11, p21 = a * p11 + b * p21, c * p11 + d * p21
                p12, p22 = a * p12 + b * p22, c * p12 + d * p22
        m_out = Decimal(outside.mass_ratio)
        qsq = (e - Decimal(outside.potential)) * m_out / h2m / (m_out * m_out)
        t2 = 4 * qsq / ((p11 + p22) ** 2 * qsq + (qsq * p12 - p21) ** 2)
        return float(t2)
