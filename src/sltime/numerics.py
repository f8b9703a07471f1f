"""Shared numerical helpers: bracketed bisection and quadrature.

Bisection halves many brackets together, one call of a vectorised function
per step.  Quadrature is adaptive Simpson with explicit subdivision at
caller-supplied breakpoints, so piecewise-smooth integrands (wavefunction
density across layer interfaces) never straddle a kink.  Energy
derivatives are not taken here: the transfer-matrix kernel carries them
exactly (``tmatrix.Jet``).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NumericError

__all__ = [
    "bisect",
    "adaptive_simpson",
]


def bisect(
    f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, xtol: float
) -> np.ndarray:
    """Roots of f in the brackets [lo, hi], bisected together.

    f maps an array of abscissae to an array of values, element by element;
    f(lo) and f(hi) must not share a sign.  Every step halves every open
    bracket with one call to f, until no bracket is wider than ``xtol`` or
    can still be split in floating point.  Returns the bracket midpoints.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    f_lo = f(lo)
    while True:
        mid = 0.5 * (lo + hi)
        live = (hi - lo > xtol) & (lo < mid) & (mid < hi)
        if not live.any():
            return mid
        f_mid = f(mid)
        right = live & (np.sign(f_mid) == np.sign(f_lo))
        lo = np.where(right, mid, lo)
        f_lo = np.where(right, f_mid, f_lo)
        hi = np.where(live & ~right, mid, hi)


def _simpson(fa: complex, fm: complex, fb: complex, width: float) -> complex:
    return width / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    if depth <= 0:
        raise NumericError(f"quadrature failed to converge on [{a}, {b}]")
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _adaptive(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1) + _adaptive(
        f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1
    )


def adaptive_simpson(
    f: Callable[[float], complex],
    a: float,
    b: float,
    *,
    tol: float = 1e-6,
    breakpoints: Sequence[float] = (),
    max_depth: int = 40,
) -> complex:
    """Integral of f over [a, b] to absolute tolerance tol.

    ``breakpoints`` inside (a, b) force panel boundaries there; pass layer
    interface positions so the integrand is smooth within every panel.
    """
    if not b > a:
        raise NumericError(f"need b > a, got [{a}, {b}]")
    knots = [a] + sorted(x for x in set(breakpoints) if a < x < b) + [b]
    total = 0.0 + 0.0j
    for lo, hi in zip(knots[:-1], knots[1:]):
        fa, fb = f(lo), f(hi)
        fm = f(0.5 * (lo + hi))
        whole = _simpson(fa, fm, fb, hi - lo)
        panel_tol = tol * (hi - lo) / (b - a)
        total += _adaptive(f, lo, hi, fa, fm, fb, whole, panel_tol, max_depth)
    return total
