"""Transmission extrema of N-cell arrays and analytic lineshapes there.

An N-cell array transmits perfectly where N phi = m pi (m = 1 .. N-1) and
least where N phi = (p + 1/2) pi.  Around each extremum the exact curves
collapse onto two-parameter shapes built purely from single-cell
quantities evaluated at the extremum:

    peaks:    |t_N|^2 ~ [1 + x^2]^(-1),      x = (E - E_m)/(Gamma_m/2),
              Gamma_m = 2 / (N sinh(mu_m) phi_m')
              tau_ph  ~ N tau_Bl cosh(mu) (1 + 2 b_m x)/(1 + x^2)   (Fano)

    valleys:  tau_ph  ~ (N tau_Bl / cosh mu) (1 + C_p y)
                        / [1 + 2 D_p y + (D_p^2 - 1) y^2],
              y = (E - E_p)/(Gamma_p/2),  Gamma_p = 2/(N phi_p' tanh mu_p)

No curve fitting happens anywhere: every parameter is an analytic
expression in (phi, mu, phi', phi'', mu') at the extremum.  Extrema are
found by root-solving phi(E) on the monotone trace, which stays robust as
the peaks sharpen like 1/N.

The valley shape truncates a quadratic expansion whose denominator
vanishes at |y| = 1, so it degrades rapidly toward its window edges; the
peak shapes assume sin(N phi) is linear across the window, which holds
well only when sinh(mu) is large.  Both limitations are intrinsic to the
shapes, not to this implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import NumericError, ValidationError, require
from .kard import Band, CellModel, _require_in_band, as_model, energy_at_phase, kard_derivatives
from .medium import CONSTANTS, CellSpec, EnergyGrid, Layer

__all__ = [
    "PeakFit",
    "ValleyFit",
    "locate_extrema",
    "fit_peak",
    "fit_valley",
    "fit_extrema",
    "ApproxCurves",
    "approx_curves",
]


@dataclass(frozen=True)
class PeakFit:
    """Breit-Wigner/Fano parameters at the m-th unit-transmission peak."""

    m: int
    E_m: float  # meV
    Gamma_m: float  # meV, full width at half maximum of the BW shape
    b_m: float  # Fano asymmetry, dimensionless
    tau_peak: float  # fs, N tau_Bl cosh(mu) at E_m

    def t2(self, E: float) -> float:
        """Breit-Wigner transmission at energy E."""
        x = (E - self.E_m) / (0.5 * self.Gamma_m)
        return 1.0 / (1.0 + x * x)

    def tau(self, E: float) -> float:
        """Fano phase-time shape at energy E."""
        x = (E - self.E_m) / (0.5 * self.Gamma_m)
        return self.tau_peak * (1.0 + 2.0 * self.b_m * x) / (1.0 + x * x)


@dataclass(frozen=True)
class ValleyFit:
    """Lineshape parameters at the p-th transmission minimum.

    The two valleys nearest the band edges carry edge_degraded = True: mu
    diverges there and the quadratic expansion behind the shape is poor.
    """

    p: int
    E_p: float  # meV
    Gamma_p: float  # meV
    C_p: float  # dimensionless, O(1/N)
    D_p: float  # dimensionless, O(1/N)
    tau_valley: float  # fs, N tau_Bl / cosh(mu) at E_p
    edge_degraded: bool

    def tau(self, E: float) -> float:
        """Valley phase-time shape at energy E (meaningful for |y| < 1)."""
        y = (E - self.E_p) / (0.5 * self.Gamma_p)
        den = 1.0 + 2.0 * self.D_p * y + (self.D_p * self.D_p - 1.0) * y * y
        return self.tau_valley * (1.0 + self.C_p * y) / den


def locate_extrema(
    cell: Union[CellModel, CellSpec],
    outside: Layer | None,
    N: int,
    band: Band,
) -> tuple[list[float], list[float]]:
    """Energies of all transmission peaks and minima of an N-cell array.

    Peaks solve phi = m pi/N for m = 1 .. N-1.  Valley phase points solve
    phi = (p + 1/2) pi/N; all N in-band solutions (p = 0 .. N-1) are
    returned, of which only p = 1 .. N-2 are interior -- the outermost two
    hug the band edges and are flagged when fitted.
    """
    if N < 2:
        raise ValidationError(f"extrema need at least 2 cells, got N = {N}")
    model = as_model(cell, outside)
    phases = np.concatenate([np.arange(1, N), np.arange(N) + 0.5]) * math.pi / N
    energies = energy_at_phase(model, band, phases).tolist()
    return energies[: N - 1], energies[N - 1 :]


def _fit(model: CellModel, N: int, band: Band,
         peaks: dict[int, float], valleys: dict[int, float]):
    """PeakFits and ValleyFits at the {index: energy} extrema given, from
    one array kard_derivatives call over all of them."""
    E = np.array([*peaks.values(), *valleys.values()])
    d = kard_derivatives(model, None, E, band=band)
    mu, phi_p, phi_pp, mu_p = d.params.mu, d.phi_p, d.phi_pp, d.mu_p
    require(mu > 0.0, NumericError,
            "transparent cell at E = {E} meV: no resonance width or valley contrast", E=E)
    ch, th = np.cosh(mu), np.tanh(mu)
    bloch = N * CONSTANTS.hbar * phi_p
    gamma_p = 2.0 / (N * phi_p * th)
    peak = zip(peaks.items(), 2.0 / (N * np.sinh(mu) * phi_p),
               0.5 * (2.0 * mu_p + phi_pp / (th * phi_p)) / (N * phi_p * ch), bloch * ch)
    v = slice(len(peaks), None)
    valley = zip(valleys.items(), gamma_p[v], (0.5 * gamma_p * phi_pp / phi_p)[v],
                 (mu_p / (N * phi_p))[v], (bloch / ch)[v])
    return (tuple(PeakFit(m, e, *map(float, rest)) for (m, e), *rest in peak),
            tuple(ValleyFit(p, e, *map(float, rest), edge_degraded=p in (0, N - 1))
                  for (p, e), *rest in valley))


def fit_peak(
    cell: Union[CellModel, CellSpec],
    outside: Layer | None,
    N: int,
    m: int,
    *,
    band: Band,
) -> PeakFit:
    """Analytic lineshape parameters at the m-th peak (m = 1 .. N-1)."""
    if not 1 <= m <= N - 1:
        raise ValidationError(f"peak index m = {m} outside 1..{N - 1}")
    model = as_model(cell, outside)
    E_m = energy_at_phase(model, band, m * math.pi / N)
    return _fit(model, N, band, {m: E_m}, {})[0][0]


def fit_valley(
    cell: Union[CellModel, CellSpec],
    outside: Layer | None,
    N: int,
    p: int,
    *,
    band: Band,
) -> ValleyFit:
    """Analytic lineshape parameters at the p-th minimum (p = 0 .. N-1)."""
    if not 0 <= p <= N - 1:
        raise ValidationError(f"valley index p = {p} outside 0..{N - 1}")
    model = as_model(cell, outside)
    E_p = energy_at_phase(model, band, (p + 0.5) * math.pi / N)
    return _fit(model, N, band, {}, {p: E_p})[1][0]


def fit_extrema(
    cell: Union[CellModel, CellSpec],
    outside: Layer | None,
    N: int,
    band: Band,
) -> tuple[tuple[PeakFit, ...], tuple[ValleyFit, ...]]:
    """``fit_peak`` at every m = 1 .. N-1 and ``fit_valley`` at every
    p = 0 .. N-1, all roots from one ``locate_extrema`` call."""
    model = as_model(cell, outside)
    peaks, valleys = locate_extrema(model, None, N, band)
    return _fit(model, N, band, dict(enumerate(peaks, 1)), dict(enumerate(valleys)))


@dataclass(frozen=True)
class ApproxCurves:
    """Piecewise analytic approximation sampled on a grid.

    Around each peak the Breit-Wigner/Fano shapes are used for
    |E - E_m| <= Gamma_m; around each valley (peak windows taking
    precedence where they overlap) the valley shape is used for
    |E - E_p| <= Gamma_p/2.  Both bounds are closed: a sample exactly on a
    window edge takes the window's shape.  A sample between windows takes
    the straight line in energy between the edge values of the nearest
    window edges on either side, and a sample beyond the outermost window
    takes that window's edge value, so the curves are continuous across
    every gap.  For the transmission every edge value is the Breit-Wigner
    1/5.  Where two windows overlap the peak shape takes precedence, and
    the step between the two shapes remains.
    """

    energies: np.ndarray
    t2: np.ndarray
    tau_ph: np.ndarray
    peaks: tuple[PeakFit, ...]
    valleys: tuple[ValleyFit, ...]


def approx_curves(
    cell: Union[CellModel, CellSpec],
    outside: Layer | None,
    N: int,
    band: Band,
    grid: EnergyGrid,
) -> ApproxCurves:
    """Build the piecewise peak/valley approximation over a grid inside
    ``band``; a sample outside it raises NearBandEdgeError."""
    energies = grid.samples
    _require_in_band(band, energies)
    peaks, valleys = fit_extrema(cell, outside, N, band)

    # Windows [lo, hi], peaks first: a sample takes the first that holds it.
    fits = (*peaks, *valleys)
    centre = np.array([pk.E_m for pk in peaks] + [vl.E_p for vl in valleys])
    half = np.array([pk.Gamma_m for pk in peaks] + [0.5 * vl.Gamma_p for vl in valleys])
    lo, hi = centre - half, centre + half
    inside = (lo[:, None] <= energies) & (energies <= hi[:, None])
    owner = np.where(inside.any(axis=0), inside.argmax(axis=0), -1)

    t2 = np.empty(len(energies))
    tau = np.empty(len(energies))
    for w, fit in enumerate(fits):
        at = owner == w
        tau[at] = fit.tau(energies[at])
        if w < len(peaks):
            t2[at] = fit.t2(energies[at])

    # Valley windows never define t2; the BW value at |x| = 2 is 1/5 for
    # every peak, so that is the universal edge value.  A sample no window
    # holds lies between the hi edge of one window and the lo edge of
    # another, the nearest edges on either side, so interpolating over the
    # sorted edges bridges it; beyond the outermost edge it keeps that value.
    t2_edges = [[pk.t2(e) for pk, e in zip(peaks, ends)] + [0.2] * len(valleys)
                for ends in (lo, hi)]
    tau_edges = [[fit.tau(e) for fit, e in zip(fits, ends)] for ends in (lo, hi)]
    edges = np.concatenate([lo, hi])
    order = np.argsort(edges, kind="stable")
    for values, covered, at_edges in ((t2, (owner >= 0) & (owner < len(peaks)), t2_edges),
                                      (tau, owner >= 0, tau_edges)):
        gap = ~covered
        values[gap] = np.interp(energies[gap], edges[order], np.concatenate(at_edges)[order])
    return ApproxCurves(energies=energies, t2=t2, tau_ph=tau, peaks=peaks, valleys=valleys)
