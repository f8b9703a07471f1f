"""A closed-form single-band cell model for exercising the angle machinery.

Instead of a layered potential, the cell is specified directly by two
elementary laws on its band [50, 75] meV:

    cos(phi) = lam * (E_bragg - E),        lam = 0.08 / meV
    |t|^(-2) = 1 + t2_strength / E,        t2_strength = 160 meV

Everything else follows: sin(phi) sinh(mu) = |m21| = sqrt(t2_strength / E),
so mu comes for free, and chi = 0 by symmetry.  Because phi(E) and mu(E)
are elementary, their energy derivatives have closed forms in angle space;
the tests keep those as the oracle for kard.kard_derivatives, which
``PlayModelSpec.derivatives`` feeds c' = -lam, c'' = 0 and
|m21|^2' = -t2_strength / E^2 straight from the two laws.

The model satisfies the CellModel protocol (trace is the linear law above,
defined at every energy; matrix and derivatives exist only on the open
band interior; all take a scalar energy or an array; bands clips the band
to a window), so band structure, timing curves, and resonance analysis run on it
unchanged.  It has no spatial profile, so nothing that needs V(x)
(dwell-time integrals, wave-packet runs) can consume it: those operations
take a layered stack and there is none here.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import NearBandEdgeError, require
from .kard import KardParams, reconstruct
from .tmatrix import TransferMatrix

__all__ = [
    "PlayModelSpec",
    "PLAY_MODEL",
    "play_kard",
    "play_matrix",
    "play_eta",
]


class PlayModelSpec:
    """The closed-form model's fixed constants; the one instance is ``PLAY_MODEL``."""

    lam = 0.08  # 1/meV, slope of cos(phi) in energy
    e_bragg = 62.5  # meV, band-center energy where phi = pi/2
    t2_strength = 160.0  # meV, in |t|^-2 = 1 + t2_strength/E
    #: band edges, where cos(phi) reaches +-1
    band = (e_bragg - 1.0 / lam, e_bragg + 1.0 / lam)

    def _require_interior(self, E) -> None:
        lo, hi = self.band
        E = np.asarray(E)
        require((lo < E) & (E < hi), NearBandEdgeError,
                "E = {E} meV is not inside the open band ({lo}, {hi}) meV", E=E, lo=lo, hi=hi)

    # -- CellModel protocol ------------------------------------------------

    def trace(self, E):
        """2 cos(phi), extended by the same linear law at every energy."""
        c2 = 2.0 * self.lam * (self.e_bragg - np.asarray(E, dtype=float))
        return c2 if isinstance(c2, np.ndarray) else float(c2)

    def matrix(self, E) -> TransferMatrix:
        return play_matrix(E)

    def derivatives(self, E, second: bool) -> tuple:
        """(M, c', c'', g') from the two laws: c = lam (E_bragg - E), g = t2_strength / E."""
        return play_matrix(E), -self.lam, 0.0, -self.t2_strength / (E * E)

    def bands(self, e_lo: float, e_hi: float) -> list[tuple[float, float, int]]:
        """The one band, clipped to [e_lo, e_hi]; cos(phi) falls across it (parity +1)."""
        lo, hi = max(self.band[0], e_lo), min(self.band[1], e_hi)
        return [(lo, hi, 1)] if lo < hi else []


PLAY_MODEL = PlayModelSpec()


def play_kard(E) -> KardParams:
    """Cell angles at energy E (scalar or array), from the two closed-form laws.

    The transmission law fixes the cell reflectivity through
    sinh(mu) = sqrt(t2_strength/E) / sin(phi); mu diverges at both band
    edges, where sin(phi) -> 0 while the numerator stays finite.
    """
    PLAY_MODEL._require_interior(E)
    E = np.asarray(E, dtype=float)
    phi = np.arccos(PLAY_MODEL.lam * (PLAY_MODEL.e_bragg - E))
    mu = np.arcsinh(np.sqrt(PLAY_MODEL.t2_strength / E) / np.sin(phi))
    if E.ndim == 0:
        phi, mu = float(phi), float(mu)
    return KardParams(phi=phi, mu=mu, chi=0.0)


def play_matrix(E) -> TransferMatrix:
    """Cell transfer matrix carrying the model's angles.

    Feeds every downstream consumer identically to a potential-derived
    matrix.
    """
    return replace(reconstruct(play_kard(E)), ref_energy=E)


def play_eta(E):
    """Single-cell transmission phase, on the branch with eta(E_bragg) = pi/2.

    cos(eta) = |t| cos(phi) leaves a quadrant choice; taking eta in (0, pi)
    makes it continuous and increasing across the band and equal to phi at
    the band center, where both pass through pi/2.
    """
    PLAY_MODEL._require_interior(E)
    E = np.asarray(E, dtype=float)
    cos_phi = PLAY_MODEL.lam * (PLAY_MODEL.e_bragg - E)
    t_abs = 1.0 / np.sqrt(1.0 + PLAY_MODEL.t2_strength / E)
    eta = np.arccos(t_abs * cos_phi)
    return float(eta) if eta.ndim == 0 else eta
