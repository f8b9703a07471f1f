"""Shared numerical helpers: bracketed bisection and quadrature.

Both take a vectorised function and call it once per step on every open
bracket or panel together.  Bisection halves many brackets at a time.
Quadrature is adaptive Simpson, refined level by level, with explicit
subdivision at caller-supplied breakpoints, so piecewise-smooth integrands
(wavefunction density across layer interfaces) never straddle a kink.  Energy
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


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    tol: float = 1e-6,
    breakpoints: Sequence[float] = (),
    max_depth: int = 40,
) -> complex:
    """Integral of f over [a, b] to absolute tolerance tol.

    f maps an array of abscissae to an array of values, element by element.
    ``breakpoints`` inside (a, b) force panel boundaries there; pass layer
    interface positions so the integrand is smooth within every panel.

    The panels are refined level by level: each level calls f once, on the
    two new quarter points of every open panel.  A panel whose two halves
    change its Simpson estimate by at most 15 tol is accepted (with the
    Richardson correction); the others split, each half with tol halved.
    A panel still open after ``max_depth`` levels raises, so f is called at
    most ``max_depth + 1`` times.
    """
    if not b > a:
        raise NumericError(f"need b > a, got [{a}, {b}]")

    def simpson(x, fx):  # the rule on panels given as rows (lo, mid, hi)
        return (x[:, 2] - x[:, 0]) / 6.0 * (fx[:, 0] + 4.0 * fx[:, 1] + fx[:, 2])

    knots = np.array([a] + sorted(p for p in set(breakpoints) if a < p < b) + [b])
    x = np.stack([knots[:-1], 0.5 * (knots[:-1] + knots[1:]), knots[1:]], axis=1)
    fx = f(x.ravel()).reshape(x.shape)
    tols = tol * (x[:, 2] - x[:, 0]) / (b - a)
    total = 0.0 + 0.0j
    for _ in range(max_depth):
        whole, n = simpson(x, fx), len(x)
        quarters = 0.5 * (x[:, :2] + x[:, 1:])
        x5 = np.insert(x, [1, 2], quarters, axis=1)  # lo, lq, mid, rq, hi
        f5 = np.insert(fx, [1, 2], f(quarters.ravel()).reshape(quarters.shape), axis=1)
        # every left half, then every right half
        x, fx = np.concatenate([x5[:, :3], x5[:, 2:]]), np.concatenate([f5[:, :3], f5[:, 2:]])
        halves = simpson(x, fx)
        delta = halves[:n] + halves[n:] - whole
        done = np.abs(delta) <= 15.0 * tols
        total += np.sum((halves[:n] + halves[n:] + delta / 15.0)[done])
        if done.all():
            return complex(total)
        split = np.tile(~done, 2)
        x, fx, tols = x[split], fx[split], np.tile(0.5 * tols[~done], 2)
    raise NumericError(f"quadrature failed to converge on [{x[0, 0]}, {x[0, 2]}]")
