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
exists to avoid).  Energies may be scalars or arrays throughout; sweeps and
curves evaluate their whole grid in one call of the cell model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import NumericError, ValidationError
from .kard import (
    Band,
    CellModel,
    KardDerivatives,
    PotentialCell,
    _kard_derivatives,
    as_model,
    decompose,
)
from .medium import CONSTANTS, CellSpec, EnergyGrid, Layer
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
    if not np.all(np.isfinite(e_kin)):
        raise ValidationError(f"non-finite energy in {E}")
    if np.any(e_kin <= 0.0):
        raise NumericError(f"no propagating lead wave at E = {E} meV")
    k = np.sqrt(e_kin * outside.mass_ratio / CONSTANTS.hbar2_over_2m0)
    return width / CONSTANTS.velocity(k, outside.mass_ratio)


def bloch_time(
    cell: Union[CellModel, CellSpec],
    outside: Layer | None = None,
    E: float = 0.0,
    *,
    band: Band | None = None,
):
    """Per-cell traversal time hbar phi' (fs) at band-interior energy E."""
    d, _ = _kard_derivatives(as_model(cell, outside), E, band, second=False)
    tau = CONSTANTS.hbar * d.phi_p
    if np.any(tau <= 0.0):
        raise NumericError(f"nonpositive Bloch time at E = {E} meV: phi' = {d.phi_p}")
    return tau


def _phase_time_from(d: KardDerivatives, N: int):
    phi, mu = d.params.phi, d.params.mu
    n_bloch = N * CONSTANTS.hbar * d.phi_p
    sin_n = np.sin(N * phi)
    # tanh(mu) mu' -> 0 whenever mu -> 0, so a transparent cell is safe here.
    ripple = np.sin(2.0 * N * phi) * np.tanh(mu) * d.mu_p / (2.0 * N * d.phi_p)
    return n_bloch * np.cosh(mu) * (1.0 + ripple) / (1.0 + np.sinh(mu) ** 2 * sin_n**2)


def phase_time(
    cell: Union[CellModel, CellSpec],
    outside: Layer | None = None,
    N: int = 1,
    E: float = 0.0,
    *,
    band: Band | None = None,
):
    """Stationary-phase time hbar d(arg t_N)/dE (fs) for the N-cell array."""
    if N < 1:
        raise ValidationError(f"need at least one cell, got N = {N}")
    d, _ = _kard_derivatives(as_model(cell, outside), E, band, second=False)
    return _phase_time_from(d, N)


def envelopes(
    cell: Union[CellModel, CellSpec],
    outside: Layer | None = None,
    N: int = 1,
    E: float = 0.0,
    *,
    band: Band | None = None,
):
    """(env_max, env_min, N tau_Bl) at energy E, all in fs.

    env_min is cross-evaluated through the matrix-element identity
    N hbar (d cos phi / dE) / Im M11 = N tau_Bl / cosh mu, which holds
    because Im M11 = -sin(phi) cosh(mu); disagreement beyond 1e-8 relative
    means the decomposition and the matrix have drifted apart.
    """
    d, M = _kard_derivatives(as_model(cell, outside), E, band, second=False)
    ch = np.cosh(d.params.mu)
    bloch_total = N * CONSTANTS.hbar * d.phi_p
    env_max = bloch_total * ch
    env_min = bloch_total / ch
    c_p = -d.phi_p * np.sin(d.params.phi)
    m_form = N * CONSTANTS.hbar * c_p / M.m11.imag
    if np.any(np.abs(m_form - env_min) > 1e-8 * np.abs(env_min)):
        raise NumericError(
            f"envelope cross-check failed at E = {E} meV: "
            f"{m_form} (matrix form) vs {env_min} (cosh form)"
        )
    return env_max, env_min, bloch_total


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
    outside: Layer | None = None,
    N: int = 1,
    grid: EnergyGrid | None = None,
) -> TransmissionSweep:
    """N-cell transmission over a grid, via the angle closed form.

    In-band samples use |t_N|^2 = [1 + sinh^2(mu) sin^2(N phi)]^(-1) and are
    verified against the explicit N-fold matrix product to 1e-10 relative;
    out-of-band samples take the matrix-product value directly.  For an
    opaque cell the product's own float64 rounding, amplified by up to
    cosh^2(mu), can exceed 1e-10; so for a layered cell each flagged sample
    is checked again against the 40-digit reference of ``precise``, and the
    sweep raises only if that disagrees by more than 1e-10 too.
    """
    if grid is None:
        raise ValidationError("transmission_sweep needs an energy grid")
    if N < 1:
        raise ValidationError(f"need at least one cell, got N = {N}")
    model = as_model(cell, outside)
    E = grid.samples
    M = model.matrix(E)
    direct = amplitudes(M.power(N)).T
    p = decompose(M)
    allowed = p.band == "allowed"
    with np.errstate(invalid="ignore"):
        closed = 1.0 / (1.0 + np.sinh(p.mu) ** 2 * np.sin(N * p.phi) ** 2)
    off = allowed & (np.abs(closed - direct) > 1e-10 * np.maximum(closed, direct))
    reference = ""
    if off.any() and isinstance(model, PotentialCell):
        from .precise import transmission  # loads decimal, so only when needed

        exact = np.array([transmission(model.cell, model.outside, N, e)
                          for e in E[off]])
        still = np.abs(closed[off] - exact) > 1e-10 * np.maximum(closed[off], exact)
        off[off] = still
        reference = f" and with the 40-digit value {exact[still][0]}" if still.any() else ""
    if off.any():
        i = int(np.flatnonzero(off)[0])
        raise NumericError(
            f"closed-form |t_N|^2 = {closed[i]} disagrees with the "
            f"matrix product {direct[i]}{reference} at E = {E[i]} meV"
        )
    return TransmissionSweep(
        energies=E.copy(),
        t2=np.where(allowed, closed, direct),
        envelope=np.where(allowed, 1.0 / np.cosh(p.mu) ** 2, math.nan),
    )


@dataclass(frozen=True)
class TimingCurve:
    """Timing quantities per band-interior energy sample, all times in fs.

    tau_ph_delay subtracts the free flight over the array's physical width
    (nan when the model has no spatial extent).  env_max * env_min equals
    tau_bloch_total^2 identically.
    """

    energies: np.ndarray
    t2: np.ndarray
    tau_ph: np.ndarray
    tau_ph_delay: np.ndarray
    tau_bloch_total: np.ndarray
    env_max: np.ndarray
    env_min: np.ndarray


def _refined_samples(
    grid: EnergyGrid, refine: Sequence[tuple[float, float]], lo: float, hi: float
) -> np.ndarray:
    """Merge the base grid with dense windows around sharp features.

    Each (center, width) pair contributes 240 samples, center + width k/40
    for k in [-120, 120), so center +- width are exact samples; they are
    clipped to (lo, hi) and duplicates are dropped.
    """
    pieces = [np.asarray(grid.samples, dtype=float)]
    for center, width in refine:
        if width <= 0.0:
            raise ValidationError(f"nonpositive refinement width {width}")
        local = center + width * (np.arange(-120, 120) / 40.0)
        pieces.append(local[(local > lo) & (local < hi)])
    merged = np.unique(np.concatenate(pieces))
    return merged[(merged >= lo) & (merged <= hi)]


def timing_curve(
    cell: Union[CellModel, CellSpec],
    outside: Layer | None = None,
    N: int = 1,
    grid: EnergyGrid | None = None,
    *,
    band: Band | None = None,
    refine: Sequence[tuple[float, float]] = (),
) -> TimingCurve:
    """Evaluate the timing quantities across a band-interior grid.

    ``refine`` takes (energy, width) pairs -- typically resonance positions
    and their widths -- around which the base grid is locally densified so
    sharp peaks are actually resolved (40 samples per width).
    """
    if grid is None:
        raise ValidationError("timing_curve needs an energy grid")
    if N < 1:
        raise ValidationError(f"need at least one cell, got N = {N}")
    model = as_model(cell, outside)
    lo = band.lower if band is not None else float(grid.samples[0])
    hi = band.upper if band is not None else float(grid.samples[-1])
    samples = _refined_samples(grid, refine, lo, hi)

    d, _ = _kard_derivatives(model, samples, band, second=False)
    phi, mu = d.params.phi, d.params.mu
    ch = np.cosh(mu)
    bloch = N * CONSTANTS.hbar * d.phi_p
    tau_ph = _phase_time_from(d, N)
    if isinstance(model, PotentialCell):
        tau_delay = tau_ph - free_time(N * model.cell.width, samples, model.outside)
    else:
        tau_delay = np.full(len(samples), math.nan)
    return TimingCurve(
        energies=samples,
        t2=1.0 / (1.0 + np.sinh(mu) ** 2 * np.sin(N * phi) ** 2),
        tau_ph=tau_ph,
        tau_ph_delay=tau_delay,
        tau_bloch_total=bloch,
        env_max=bloch * ch,
        env_min=bloch / ch,
    )
