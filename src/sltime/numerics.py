"""Shared numerical helpers: differentiation and quadrature.

Energy derivatives use central differences with one Richardson step (the
five-point stencil), which keeps the truncation error at O(h^4) without
requiring analytic derivatives.  Quadrature is adaptive Simpson with
explicit subdivision at caller-supplied breakpoints, so piecewise-smooth
integrands (wavefunction density across layer interfaces) never straddle a
kink.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NumericError

__all__ = [
    "STENCIL",
    "derivative",
    "stencil_derivatives",
    "bisect",
    "adaptive_simpson",
]

#: Offsets of the five-point stencil, in units of the step h.
STENCIL = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def derivative(f: Callable[[float], complex], x: float, h: float) -> complex:
    """d f / d x via the 5-point Richardson-extrapolated central difference.

    Works for real- or complex-valued f; error O(h^4) for smooth f.
    """
    if h <= 0:
        raise NumericError(f"step must be positive, got {h}")
    return (8.0 * (f(x + h) - f(x - h)) - (f(x + 2 * h) - f(x - 2 * h))) / (12.0 * h)


def stencil_derivatives(values: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives, error O(h^4), from samples of f at
    x + STENCIL * h along the last axis of ``values``."""
    if h <= 0:
        raise NumericError(f"step must be positive, got {h}")
    fm2, fm1, f0, fp1, fp2 = (values[..., i] for i in range(5))
    first = (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * h)
    second = (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)
    return first, second


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
