"""Shared numerical helpers: bracketed root finding and quadrature.

Both take a vectorised function and call it once per step on every open
bracket or panel together.  The root finder narrows many brackets at a time
by the ITP method, which keeps bisection's worst case and converges
superlinearly on smooth roots.  Quadrature is adaptive Simpson on many
integrals at once, refined level by level, with explicit subdivision at
caller-supplied breakpoints, so piecewise-smooth integrands (wavefunction
density across layer interfaces) never straddle a kink.  Energy
derivatives are not taken here: the transfer-matrix kernel carries them
exactly (``tmatrix.Jet``).
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, QuadratureError

__all__ = [
    "bracket_roots",
    "adaptive_simpson",
]


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
    step.)  A NaN from f raises NumericError.
    """
    a, b, ya, yb = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    if np.isnan(ya).any() or np.isnan(yb).any():
        raise NumericError("root bracket with a NaN end value")
    if (ya * yb > 0.0).any():
        i = np.flatnonzero(ya * yb > 0.0)[0]
        raise NumericError(f"f does not change sign on [{a.flat[i]}, {b.flat[i]}]")
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
        if np.isnan(y[live]).any():
            raise NumericError(f"f is NaN at {x[live & np.isnan(y)].flat[0]} inside a root bracket")
        a = np.where(live & (y <= 0.0), x, a)
        b = np.where(live & (y >= 0.0), x, b)
        ya = np.where(live & (y <= 0.0), y, ya)
        yb = np.where(live & (y >= 0.0), y, yb)


def adaptive_simpson(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: Sequence[float],
    b: Sequence[float],
    *,
    tol: float = 1e-6,
    breakpoints: Sequence[Sequence[float]] | None = None,
    max_depth: int = 40,
) -> np.ndarray:
    """Integrals of f over [a[i], b[i]] for every i, each to absolute tolerance tol.

    f(x, i) maps an array of abscissae and a same-shaped array of integral
    indices to the integrand values there, element by element.
    ``breakpoints[i]`` inside (a[i], b[i]) force panel boundaries of
    integral i; pass layer interface positions so the integrand is smooth
    within every panel.  Returns a complex array, one value an integral.

    The panels of all integrals are refined together, level by level: each
    level calls f once, on the two new quarter points of every open panel.
    A panel whose two halves change its Simpson estimate by at most 15 tol
    (tol scaled by the panel's share of its interval) is accepted, with the
    Richardson correction; the others split, each half with its tol halved.
    The accepted panels of one integral are summed in the same order
    whether it is refined alone or with others, so its value does not
    depend on its company.  A panel still open after ``max_depth`` levels
    raises QuadratureError naming the first such integral, so f is called
    at most ``max_depth + 1`` times.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = a.size
    if breakpoints is None:
        breakpoints = [()] * n
    if not (b > a).all():
        i = np.flatnonzero(~(b > a))[0]
        raise NumericError(f"need b > a, got [{a[i]}, {b[i]}]")

    def simpson(x, fx):  # the rule on panels given as rows (lo, mid, hi)
        return (x[:, 2] - x[:, 0]) / 6.0 * (fx[:, 0] + 4.0 * fx[:, 1] + fx[:, 2])

    knots = [np.concatenate([[lo], inner[(lo < inner) & (inner < hi)], [hi]])
             for lo, hi, inner in zip(a, b, map(np.unique, breakpoints), strict=True)]
    owner = np.repeat(np.arange(n), [len(k) - 1 for k in knots])
    lo, hi = np.concatenate([k[:-1] for k in knots]), np.concatenate([k[1:] for k in knots])
    x = np.stack([lo, 0.5 * (lo + hi), hi], axis=1)
    fx = f(x.ravel(), np.repeat(owner, 3)).reshape(x.shape)
    tols = tol * (hi - lo) / (b - a)[owner]
    total = np.zeros(n, dtype=complex)
    for _ in range(max_depth):
        quarters = 0.5 * (x[:, :2] + x[:, 1:])
        f_quarters = f(quarters.ravel(), np.repeat(owner, 2)).reshape(quarters.shape)
        x5 = np.insert(x, [1, 2], quarters, axis=1)  # lo, lq, mid, rq, hi
        f5 = np.insert(fx, [1, 2], f_quarters, axis=1)
        halves = simpson(x5[:, :3], f5[:, :3]) + simpson(x5[:, 2:], f5[:, 2:])
        delta = halves - simpson(x, fx)
        done = np.abs(delta) <= 15.0 * tols
        # per integral, in panel order (bincount adds its weights one by one)
        accepted = (halves + delta / 15.0)[done]
        total += (np.bincount(owner[done], accepted.real, n)
                  + 1j * np.bincount(owner[done], accepted.imag, n))
        if done.all():
            return total
        x5, f5 = x5[~done], f5[~done]
        # every left half, then every right half
        x, fx = np.concatenate([x5[:, :3], x5[:, 2:]]), np.concatenate([f5[:, :3], f5[:, 2:]])
        tols, owner = np.tile(0.5 * tols[~done], 2), np.tile(owner[~done], 2)
    i = owner.min()
    x0, _, x2 = x[np.argmax(owner == i)]
    raise QuadratureError(f"quadrature of integral {i} failed to converge on [{x0}, {x2}]", i)
