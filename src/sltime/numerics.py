"""Shared numerical helper: bracketed root finding on arrays.

The root finder takes a vectorised function and calls it once per step on
every open bracket together, narrowing many brackets at a time by the ITP
method, which keeps bisection's worst case and converges superlinearly on
smooth roots.  Nothing here integrates or differentiates: the density
integral of ``scattering`` is a closed form per layer, and the
transfer-matrix kernel carries energy derivatives exactly (``tmatrix.Jet``).
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from .errors import NumericError, require

__all__ = ["bracket_roots"]


def bracket_roots(
    f: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    f_lo: np.ndarray,
    f_hi: np.ndarray,
    xtol: float,
) -> np.ndarray:
    """Roots of f in the brackets [lo, hi], narrowed together by ITP.

    The four arrays share one shape, one element a bracket.  f maps an
    array of abscissae of that shape to its values there, element by
    element; ``f_lo`` and ``f_hi`` are its values at the bracket ends, which
    must not share a sign (an exact zero at an end is that bracket's root).
    Every step calls f once, with one point inside every open bracket
    (closed ones pass their midpoint), until no bracket is wider than
    ``xtol`` or can still be split in floating point.  Returns the midpoints
    of the final brackets.

    The point is the ITP choice of Oliveira & Takahashi (ACM TOMS 47(1),
    2020), with kappa1 = 0.2 / (initial width), kappa2 = 2 and n0 = 1: the
    regula falsi point, pushed towards the midpoint by kappa1 width^2 and
    held within the radius around the midpoint that leaves the bracket,
    after step j (from 0), no wider than its initial width / 2^j, which is
    bisection's width one step earlier.  A bracket therefore needs at most
    one step more than bisection to the same ``xtol``, and on a smooth
    simple root converges superlinearly.  (The published radius rounds that
    budget up to xtol times a power of two; taking it from the initial
    width keeps rounding in the last split from costing a second extra
    step.)  A NaN end value, a bracket whose ends share a sign, or a NaN
    from f inside a bracket raises NumericError, naming the first such
    bracket or point.
    """
    a, b, ya, yb = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    require(~(np.isnan(ya) | np.isnan(yb)), NumericError, "root bracket with a NaN end value")
    # not "<= 0": 0 * inf is NaN, and a zero end is a root
    require(~(ya * yb > 0.0), NumericError, "f does not change sign on [{a}, {b}]", a=a, b=b)
    # Work with s f, which rises through the root; a zero end closes its bracket.
    s = np.where(ya > yb, -1.0, 1.0)
    ya, yb = s * ya, s * yb
    a, b = np.where(yb == 0.0, b, a), np.where(ya == 0.0, a, b)
    width0 = b - a
    kappa1 = 0.2 / np.where(width0 > 0.0, width0, 1.0)
    for j in itertools.count():
        mid = 0.5 * (a + b)
        live = (b - a > xtol) & (a < mid) & (mid < b)
        if not live.any():
            return mid
        a_, b_, ya_, yb_, mid_ = a[live], b[live], ya[live], yb[live], mid[live]
        width = b_ - a_
        with np.errstate(invalid="ignore"):  # an infinite end value gives NaN: bisect
            x_f = (yb_ * a_ - ya_ * b_) / (yb_ - ya_)
        sigma = np.sign(mid_ - x_f)
        delta = kappa1[live] * width * width
        x_t = np.where(delta <= np.abs(mid_ - x_f), x_f + sigma * delta, mid_)
        radius = width0[live] * 0.5**j - 0.5 * width
        x_itp = np.where(np.abs(x_t - mid_) <= radius, x_t, mid_ - sigma * radius)
        x = np.array(mid)
        x[live] = np.where((a_ < x_itp) & (x_itp < b_), x_itp, mid_)
        y = s * np.asarray(f(x), dtype=float)
        require(~(live & np.isnan(y)), NumericError, "f is NaN at {x} inside a root bracket", x=x)
        a = np.where(live & (y <= 0.0), x, a)
        b = np.where(live & (y >= 0.0), x, b)
        ya = np.where(live & (y <= 0.0), y, ya)
        yb = np.where(live & (y >= 0.0), y, yb)

