"""Phase time, Bloch time, and the envelope loci for N-cell arrays.

With the cell angles (phi, mu) and their energy derivatives in hand, the
stationary-phase traversal time of N identical cells is elementary:

    tau_Bl = hbar phi'                      (per-cell Bloch time)

    tau_ph = N tau_Bl cosh(mu)
             * [1 + sin(2 N phi) tanh(mu) mu' / (2 N phi')]
             / [1 + sinh^2(mu) sin^2(N phi)]

tau_ph oscillates between two smooth envelopes that touch it at every
transmission maximum (N phi = m pi) and minimum (N phi = (p + 1/2) pi):

    env_max = N tau_Bl cosh(mu),    env_min = N tau_Bl / cosh(mu),

whose geometric mean is exactly N tau_Bl: a wave packet tuned to a
resonance dwells cosh(mu) times longer than the Bloch estimate, one tuned
to a transmission valley escapes cosh(mu) times faster.

Everything here is closed-form in the angles; numerical differentiation of
the N-cell transmission phase is relegated to the test suite (phase
unwrapping across sharp resonances is exactly the fragility this module
exists to avoid).  An energy may be a scalar, answered in Python floats, or
an array; sweeps and curves evaluate their grid in one call of the cell model.

``bloch_time``, ``phase_time``, ``envelopes`` and ``timing_curve`` share one
evaluation inside the ``Band`` they are handed: ``_bloch`` checks N >= 1,
makes the one derivative call, which refuses any energy outside that band,
and checks N tau_Bl > 0; ``_closed_forms`` adds the 1e-8 envelope identity
and the closed forms above.  ``bloch_time`` is ``_bloch``'s N = 1 case and
skips the closed forms; the other three return columns of
``_closed_forms``, so each runs both checks.  ``transmission_sweep`` needs no derivatives and
checks its closed form against the matrix product instead.  Every
cross-check fails through ``errors.require``: a NaN fails it, and the
NumericError names the first failing energy of an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import NumericError, ValidationError, require
from .kard import (
    Band,
    CellModel,
    PotentialCell,
    _kard_derivatives,
    as_model,
    decompose,
)
from .medium import CONSTANTS, CellSpec, EnergyGrid, Layer, _integer
from .tmatrix import amplitudes

__all__ = [
    "free_time",
    "bloch_time",
    "phase_time",
    "envelopes",
    "TransmissionSweep",
    "transmission_sweep",
    "TimingCurve",
    "timing_curve",
]


def free_time(width: float, E, outside: Layer):
    """Classical crossing time (fs) of a free slab of lead material."""
    e_kin = np.asarray(E, dtype=float) - outside.potential
    require(np.isfinite(e_kin), ValidationError, "non-finite energy E = {E} meV", E=E)
    require(e_kin > 0.0, NumericError, "no propagating lead wave at E = {E} meV", E=E)
    k = np.sqrt(e_kin * outside.mass_ratio / CONSTANTS.hbar2_over_2m0)
    t = width / CONSTANTS.velocity(k, outside.mass_ratio)
    return t if isinstance(t, np.ndarray) else float(t)


def _bloch(model: CellModel, N: int, E, band: Band) -> tuple:
    """(derivatives, cell matrix, N tau_Bl, int N) at E, from one derivative call;
    the count check on N and the N tau_Bl > 0 check of every timing function."""
    N = _integer(N, "N", 1)
    d, M = _kard_derivatives(model, E, band, second=False)
    bloch = N * CONSTANTS.hbar * d.phi_p
    require(bloch > 0.0, NumericError, "nonpositive Bloch time at E = {E} meV: phi' = {phi_p}",
            E=E, phi_p=d.phi_p)
    return d, M, bloch, N


def _closed_forms(model: CellModel, N: int, E, band: Band) -> tuple:
    """(|t_N|^2, tau_ph, env_max, env_min, N tau_Bl) at E.

    env_min is cross-evaluated through the matrix-element identity
    N hbar (d cos phi / dE) / Im M11 = N tau_Bl / cosh mu, which holds
    because Im M11 = -sin(phi) cosh(mu); disagreement beyond 1e-8 relative
    means the decomposition and the matrix have drifted apart.
    """
    d, M, bloch, N = _bloch(model, N, E, band)
    phi, mu = d.params.phi, d.params.mu
    values = (np.cosh(mu), np.sin(phi), np.sinh(mu), np.sin(N * phi),
              np.sin(2.0 * N * phi), np.tanh(mu))
    ch, s, sh, s_n, s_2n, th = values if isinstance(phi, np.ndarray) else map(float, values)
    env_min = bloch / ch
    m_form = N * CONSTANTS.hbar * (-d.phi_p * s) / M.m11.imag
    require(abs(m_form - env_min) <= 1e-8 * abs(env_min), NumericError,
            "envelope cross-check failed at E = {E} meV: "
            "{m_form} (matrix form) vs {env_min} (cosh form)",
            E=E, m_form=m_form, env_min=env_min)
    den = 1.0 + (sh * sh) * (s_n * s_n)  # not ** 2: see kard
    # tanh(mu) mu' -> 0 whenever mu -> 0, so a transparent cell is safe here.
    ripple = s_2n * th * d.mu_p / (2.0 * N * d.phi_p)
    return 1.0 / den, bloch * ch * (1.0 + ripple) / den, bloch * ch, env_min, bloch


def bloch_time(
    cell: Union[CellModel, CellSpec],
    outside: Layer | None,
    E: float,
    *,
    band: Band,
):
    """Per-cell traversal time hbar phi' (fs) at band-interior energy E."""
    return _bloch(as_model(cell, outside), 1, E, band)[2]


def phase_time(
    cell: Union[CellModel, CellSpec],
    outside: Layer | None,
    N: int,
    E: float,
    *,
    band: Band,
):
    """Stationary-phase time hbar d(arg t_N)/dE (fs) for the N-cell array."""
    return _closed_forms(as_model(cell, outside), N, E, band)[1]


def envelopes(
    cell: Union[CellModel, CellSpec],
    outside: Layer | None,
    N: int,
    E: float,
    *,
    band: Band,
):
    """(env_max, env_min, N tau_Bl) at energy E, all in fs."""
    return _closed_forms(as_model(cell, outside), N, E, band)[2:]


@dataclass(frozen=True)
class TransmissionSweep:
    """|t_N|^2 over a grid, with the envelope of its minima.

    envelope = 1/cosh^2(mu) is only defined inside allowed bands; forbidden
    or edge samples carry nan there (t2 itself is fine everywhere).
    """

    energies: np.ndarray
    t2: np.ndarray
    envelope: np.ndarray


def transmission_sweep(
    cell: Union[CellModel, CellSpec],
    outside: Layer | None,
    N: int,
    grid: EnergyGrid,
) -> TransmissionSweep:
    """N-cell transmission over a grid, via the angle closed form.

    In-band samples use |t_N|^2 = [1 + sinh^2(mu) sin^2(N phi)]^(-1) and are
    verified against the explicit N-fold matrix product to 1e-10 relative;
    out-of-band samples take the matrix-product value directly, which must be
    finite (an opaque stack's product can overflow there).  For an
    opaque cell the product's own float64 rounding, amplified by up to
    cosh^2(mu), can exceed 1e-10; so for a layered cell each flagged sample
    is checked again against the 40-digit reference of ``precise``, and the
    sweep raises only if that disagrees by more than 1e-10 too.
    """
    N = _integer(N, "N", 1)
    model = as_model(cell, outside)
    E = grid.samples
    M = model.matrix(E)
    p = decompose(M)
    allowed = p.band == "allowed"
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        direct = amplitudes(M.power(N)).T  # the finiteness check below reports an overflow
        closed = 1.0 / (1.0 + np.sinh(p.mu) ** 2 * np.sin(N * p.phi) ** 2)
    reference = direct
    ok = ~allowed | (np.abs(closed - reference) <= 1e-10 * np.maximum(closed, reference))
    if not ok.all() and isinstance(model, PotentialCell):
        from .precise import transmission  # loads decimal, so only when needed

        reference = direct.copy()
        reference[~ok] = [transmission(model.cell, model.outside, N, e) for e in E[~ok]]
        ok = ~allowed | (np.abs(closed - reference) <= 1e-10 * np.maximum(closed, reference))
    require(ok, NumericError, "closed-form |t_N|^2 = {closed} disagrees with the reference "
            "{reference} (matrix product {direct}) at E = {E} meV",
            closed=closed, reference=reference, direct=direct, E=E)
    t2 = np.where(allowed, closed, direct)
    require(np.isfinite(t2), NumericError, "|t_N|^2 = {t2} at E = {E} meV: the {N}-cell "
            "matrix product overflows", t2=t2, E=E, N=N)
    return TransmissionSweep(
        energies=E.copy(),
        t2=t2,
        envelope=np.where(allowed, 1.0 / np.cosh(p.mu) ** 2, math.nan),
    )


@dataclass(frozen=True)
class TimingCurve:
    """Timing quantities per band-interior energy sample, all times in fs.

    env_max * env_min equals tau_bloch_total^2 identically.
    """

    energies: np.ndarray
    t2: np.ndarray
    tau_ph: np.ndarray
    tau_bloch_total: np.ndarray
    env_max: np.ndarray
    env_min: np.ndarray


def _refined_samples(
    grid: EnergyGrid, refine: Sequence[tuple[float, float]], lo: float, hi: float
) -> np.ndarray:
    """Merge the base grid with dense windows around sharp features.

    Each (center, width) pair contributes 240 samples, center + width k/40
    for k in [-120, 120), so center +- width are exact samples; the windows
    are clipped to (lo, hi), and of equal sorted neighbours one is kept
    (as ``np.unique`` would, which imports ``numpy.ma``).  The base grid is
    kept whole, so that a sample outside the band reaches the band check.
    """
    pieces = [np.asarray(grid.samples, dtype=float)]
    for center, width in refine:
        if not (width > 0.0):
            raise ValidationError(f"nonpositive refinement width {width}")
        local = center + width * (np.arange(-120, 120) / 40.0)
        pieces.append(local[(local > lo) & (local < hi)])
    samples = np.sort(np.concatenate(pieces))
    return samples[np.concatenate(([True], samples[1:] != samples[:-1]))]


def timing_curve(
    cell: Union[CellModel, CellSpec],
    outside: Layer | None,
    N: int,
    grid: EnergyGrid,
    *,
    band: Band,
    refine: Sequence[tuple[float, float]] = (),
) -> TimingCurve:
    """Evaluate the timing quantities across a grid inside ``band``.

    ``refine`` takes (energy, width) pairs -- typically resonance positions
    and their widths -- around which the base grid is locally densified so
    sharp peaks are actually resolved (40 samples per width).  A grid sample
    outside the band raises NearBandEdgeError.
    """
    samples = _refined_samples(grid, refine, band.lower, band.upper)
    t2, tau_ph, env_max, env_min, bloch = _closed_forms(as_model(cell, outside), N, samples, band)
    return TimingCurve(energies=samples, t2=t2, tau_ph=tau_ph, tau_bloch_total=bloch,
                       env_max=env_max, env_min=env_min)
