"""Angle parameterization of a unit-cell transfer matrix, and band structure.

Inside an allowed band (|Tr M| < 2) a cell matrix in the time-reversal form
is fixed by three real angles (phi, mu, chi):

    M11 = cos(phi) - i sin(phi) cosh(mu)
    M21 = -i e^{i chi} sin(phi) sinh(mu)

phi is the Bloch phase per cell, mu >= 0 measures cell reflectivity (mu = 0
is a transparent cell), chi rotates the eigenvector basis and is 0 or pi
for mirror-symmetric cells.  The power law is what makes the form useful:
the N-cell matrix is the same expression with phi -> N phi at fixed mu,
chi, so every N-cell observable is elementary in these angles.

In a forbidden band the Bloch phase picks up an imaginary part,
phi -> p*pi + i*theta with cosh(theta) = |Tr M|/2; decompose classifies
rather than fails there, and the angle machinery applies only to the
allowed classification.

Energy derivatives are taken through the two smooth real functions
c = Tr M / 2 and g = |M21|^2 rather than through phi and mu directly,
which avoids branch cuts and |.| kinks entirely.  Their derivatives are
exact: a potential cell propagates them through its layer product
(``tmatrix.Jet``), the closed-form model differentiates its two laws.

Matrices, angles and derivatives may hold one energy or an array of them;
array inputs give array fields, scalar inputs plain floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Union

import numpy as np

from .errors import NearBandEdgeError, NumericError
from .medium import CellSpec, EnergyGrid, Layer
from .numerics import bracket_roots
from .tmatrix import TransferMatrix, _complex, cell_matrix, energy_jet

__all__ = [
    "KardParams",
    "KardDerivatives",
    "CellModel",
    "PotentialCell",
    "as_model",
    "decompose",
    "reconstruct",
    "Band",
    "band_structure",
    "band_phase",
    "energy_at_phase",
    "kard_derivatives",
]

#: |Tr M|/2 within this distance of 1 is classified as a band edge.
EDGE_TOL = 1e-9

#: band labels, indexed by allowed + 2 * edge
_LABELS = np.array(["forbidden", "allowed", "edge"])


@dataclass(frozen=True)
class KardParams:
    """Angles of one cell matrix, with its band classification.

    band is one of 'allowed', 'forbidden', 'edge'.  In an allowed band,
    (phi, mu, chi) are as in the module docstring and theta = 0.  In a
    forbidden band phi is the real part p*pi of the complex Bloch phase and
    theta > 0 its imaginary part; mu and chi are meaningless there (nan).
    For a matrix array every field is an array, band an array of labels.
    """

    phi: float | np.ndarray
    mu: float | np.ndarray
    chi: float | np.ndarray
    band: str | np.ndarray = "allowed"
    theta: float | np.ndarray = 0.0

    def scaled(self, n: int) -> "KardParams":
        """Angles of the n-cell matrix M^n (allowed band only)."""
        _require_allowed(self.band, "no n-cell angle scaling in a {} region")
        return KardParams(n * self.phi, self.mu, self.chi)


def _require_allowed(band, message: str) -> None:
    if isinstance(band, str) and band == "allowed":
        return  # the common case, without numpy's overhead
    bad = np.asarray(band) != "allowed"
    if bad.any():
        raise NearBandEdgeError(message.format(np.asarray(band)[bad].flat[0]))


def decompose(M: TransferMatrix, *, continuous: bool = False) -> KardParams:
    """Angles and band classification of a cell matrix (or matrix array).

    In an allowed band phi is placed in (0, 2*pi): arccos of the half-trace
    gives (0, pi) and the sign of Im M11 = -sin(phi) cosh(mu) selects the
    half-plane.  With ``continuous``, for a matrix array ordered in energy,
    each allowed phi whose predecessor is allowed too is additionally
    lifted by a multiple of 2*pi to the branch nearest the (lifted)
    predecessor, so a sweep across many bands stays continuous.
    """
    if np.ndim(M.m11) == 0:
        return _decompose_one(complex(M.m11), complex(M.m21))
    m11, m21 = M.m11, M.m21
    c = m11.real
    size = np.abs(c)
    edge = np.abs(size - 1.0) <= EDGE_TOL
    allowed = (size < 1.0) & ~edge
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.arccos(c)
        phi = np.where(m11.imag > 0.0, 2.0 * math.pi - phi, phi)
        if continuous and phi.ndim == 1 and phi.size > 1:
            linked = allowed[1:] & allowed[:-1]
            steps = np.where(linked, np.round((phi[:-1] - phi[1:]) / (2.0 * math.pi)), 0.0)
            turns = np.concatenate([[0.0], np.cumsum(steps)])
            # the lift restarts wherever the predecessor is not allowed
            start = np.maximum.accumulate(
                np.where(np.concatenate([[True], ~linked]), np.arange(phi.size), 0)
            )
            phi = phi + 2.0 * math.pi * (turns - turns[start])
        s = np.sin(phi)
        r = np.abs(m21)
        mu = np.arcsinh(r / np.abs(s))
        z = np.where(s > 0.0, 1j, -1j) * m21
        chi = np.where(r == 0.0, 0.0, np.arctan2(z.imag, z.real))
        theta = np.where(allowed | edge, 0.0, np.arccosh(size))
    return KardParams(
        phi=np.where(allowed, phi, np.where(c > 0, 0.0, math.pi)),
        mu=np.where(allowed, mu, math.nan),
        chi=np.where(allowed, chi, math.nan),
        band=_LABELS[allowed + 2 * edge],
        theta=theta,
    )


def _decompose_one(m11: complex, m21: complex) -> KardParams:
    """``decompose`` for one matrix: Python branches instead of array masks,
    numpy's elementary functions as on arrays, so both agree bit for bit."""
    c = m11.real
    if abs(abs(c) - 1.0) <= EDGE_TOL:
        p = 0.0 if c > 0 else math.pi
        return KardParams(phi=p, mu=math.nan, chi=math.nan, band="edge")
    if abs(c) > 1.0:
        p = 0.0 if c > 0 else math.pi
        return KardParams(phi=p, mu=math.nan, chi=math.nan, band="forbidden", theta=np.arccosh(abs(c)))
    phi = np.arccos(c)
    if m11.imag > 0.0:
        phi = 2.0 * math.pi - phi
    s = np.sin(phi)
    r = np.abs(m21)
    mu = np.arcsinh(r / abs(s))
    z = (1j if s > 0.0 else -1j) * m21
    chi = 0.0 if r == 0.0 else np.arctan2(z.imag, z.real)
    return KardParams(float(phi), float(mu), float(chi))


def reconstruct(params: KardParams) -> TransferMatrix:
    """Cell matrix with the given allowed-band angles (inverse of decompose
    up to the 2*pi branch of phi)."""
    _require_allowed(params.band, "cannot reconstruct a matrix from {} parameters")
    phi, mu, chi = params.phi, params.mu, params.chi
    sin_phi = np.sin(phi)
    m11 = _complex(np.cos(phi), -(sin_phi * np.cosh(mu)))
    off = sin_phi * np.sinh(mu)
    m21 = _complex(np.sin(chi) * off, -np.cos(chi) * off)  # -i e^{i chi} = sin chi - i cos chi
    return TransferMatrix(m11, m21)


class CellModel(Protocol):
    """Anything that produces an in-band cell matrix as a function of energy.

    Band structure, timing curves, and resonance analysis are written
    against this interface, so a potential cell and a closed-form model cell
    are interchangeable.  ``trace`` must be smooth across band edges (the
    matrix itself need not exist there).  ``derivatives`` returns the
    matrix together with the exact energy derivatives c', c'' of
    c = Tr M / 2 and g' of g = |M21|^2; without ``second`` c'' may be nan.
    All take a scalar energy or an array of energies, and answer in kind.
    """

    def trace(self, E: float | np.ndarray) -> float | np.ndarray: ...

    def matrix(self, E: float | np.ndarray) -> TransferMatrix: ...

    def derivatives(self, E: float | np.ndarray, second: bool) -> tuple: ...


@dataclass(frozen=True)
class PotentialCell:
    """CellModel backed by an actual layered potential between given leads."""

    cell: CellSpec
    outside: Layer

    def matrix(self, E: float | np.ndarray) -> TransferMatrix:
        return cell_matrix(E, self.cell, self.outside)

    def trace(self, E: float | np.ndarray) -> float | np.ndarray:
        return self.matrix(E).trace

    def derivatives(self, E: float | np.ndarray, second: bool) -> tuple:
        J = cell_matrix(energy_jet(E, second), self.cell, self.outside)
        m11, m21 = J.m11, J.m21
        g_p = 2.0 * (m21.v.real * m21.d1.real + m21.v.imag * m21.d1.imag)
        c_pp = m11.d2.real if second else math.nan
        return TransferMatrix(m11.v, m21.v, E), m11.d1.real, c_pp, g_p


def as_model(cell: Union[CellModel, CellSpec], outside: Layer | None = None) -> CellModel:
    """Accept either a CellModel or a raw (CellSpec, outside) pair."""
    if isinstance(cell, CellSpec):
        if outside is None:
            raise NumericError("a CellSpec needs its lead layer ('outside')")
        return PotentialCell(cell, outside)
    return cell


@dataclass(frozen=True)
class Band:
    """One allowed band (or the part of it inside the scanned window).

    parity is the sign s in Tr M / 2 = s * cos(phi_local), where phi_local
    runs 0 -> pi across the band as E increases; odd-numbered bands have
    s = +1.  ``lower_is_edge``/``upper_is_edge`` distinguish true band edges
    from window truncation.
    """

    index: int
    lower: float
    upper: float
    parity: int
    lower_is_edge: bool = True
    upper_is_edge: bool = True

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def interior(self, margin: float = 1e-6) -> tuple[float, float]:
        pad = margin * self.width
        return self.lower + pad, self.upper - pad


def band_structure(
    cell: Union[CellModel, CellSpec],
    outside: Layer | None = None,
    grid: EnergyGrid | None = None,
    *,
    edge_tol: float = 1e-12,
) -> list[Band]:
    """Allowed bands of the periodic crystal built from this cell.

    Scans the half-trace on the grid samples in one array call, brackets
    every crossing of +-1, and polishes all edges together with
    ``numerics.bracket_roots``, starting from the scanned values.
    A band narrower than the sample spacing can hide between two forbidden
    samples: it is looked for at every sampled local minimum of |Tr M / 2|
    above 1 and wherever Tr M changes sign between forbidden samples.
    Bands cut by the scan window are included with the corresponding
    ``*_is_edge`` flag cleared.
    """
    model = as_model(cell, outside)
    if grid is None:
        raise NumericError("band_structure needs an energy grid to scan")
    samples = grid.samples
    half = 0.5 * model.trace(samples)
    f = lambda E: np.abs(0.5 * model.trace(E)) - 1.0
    vals = np.abs(half) - 1.0

    i = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    inside, f_inside, i_a, i_b = _hidden_bands(model, samples, half, edge_tol)
    # the scan's sign changes, then the two edges of each hidden band
    lo = np.concatenate([samples[i], samples[i_a], inside])
    hi = np.concatenate([samples[i + 1], inside, samples[i_b]])
    f_lo = np.concatenate([vals[i], vals[i_a], f_inside])
    f_hi = np.concatenate([vals[i + 1], f_inside, vals[i_b]])
    edges = bracket_roots(f, lo, hi, f_lo, f_hi, edge_tol)
    edges = np.sort(np.concatenate([edges, samples[vals == 0.0]]))

    e_lo, e_hi = float(samples[0]), float(samples[-1])
    bounds = np.concatenate([[e_lo], edges, [e_hi]])
    lower, upper = bounds[:-1], bounds[1:]
    keep = upper - lower >= 10 * edge_tol
    lower, upper = lower[keep], upper[keep]
    # The half-trace is monotone across a band (parity * cos(phi_local)
    # with phi_local increasing), so its direction fixes the parity even
    # when the window truncates the band.
    delta = 1e-6 * (upper - lower)
    mid, first, last = np.split(
        model.trace(np.concatenate([0.5 * (lower + upper), lower + delta, upper - delta])), 3
    )
    bands: list[Band] = []
    for lo_, hi_, m, t_lo, t_hi in zip(lower, upper, mid, first, last):
        if abs(0.5 * m) >= 1.0:
            continue
        bands.append(
            Band(
                index=len(bands) + 1,
                lower=float(lo_),
                upper=float(hi_),
                parity=1 if t_lo > t_hi else -1,
                lower_is_edge=bool(lo_ != e_lo),
                upper_is_edge=bool(hi_ != e_hi),
            )
        )
    return bands


def _hidden_bands(
    model: CellModel, samples: np.ndarray, half: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bands between two forbidden samples of a scan: (an energy inside
    each, |half-trace| - 1 there, and the sample indices of its bracket's
    lower and upper ends).  In each bracket the minimum of |half-trace| is
    hunted by bisection on its slope, stopping at the first energy inside a
    band."""
    size = np.abs(half)
    forbidden = size > 1.0
    flip = forbidden[:-1] & forbidden[1:] & (half[:-1] * half[1:] < 0.0)
    dip = np.flatnonzero(forbidden[1:-1] & (size[1:-1] < size[:-2]) & (size[1:-1] <= size[2:]))
    dip = dip[~flip[dip] & ~flip[dip + 1]]  # a sign change already brackets its band
    first = np.concatenate([np.flatnonzero(flip), dip])
    last = np.concatenate([np.flatnonzero(flip) + 1, dip + 2])
    lo, hi = samples[first], samples[last]
    found = np.full(lo.size, np.nan)
    depth = np.full(lo.size, np.nan)
    live = hi - lo > tol
    while live.any():
        mid = 0.5 * (lo + hi)
        step = 1e-3 * (hi - lo)
        probes = np.concatenate([mid - step, mid + step])
        left, right = np.split(np.abs(0.5 * model.trace(probes)), 2)
        take_left = live & (left < 1.0)
        take_right = live & ~take_left & (right < 1.0)
        found = np.where(take_left, mid - step, np.where(take_right, mid + step, found))
        depth = np.where(take_left, left - 1.0, np.where(take_right, right - 1.0, depth))
        downhill_left = left < right
        hi = np.where(live & downhill_left, mid + step, hi)
        lo = np.where(live & ~downhill_left, mid - step, lo)
        live &= np.isnan(found) & (hi - lo > tol)
    hit = ~np.isnan(found)
    return found[hit], depth[hit], first[hit], last[hit]


def band_phase(model: CellModel, band: Band, E: float) -> float:
    """Local Bloch phase in (0, pi), increasing across the band."""
    if not band.lower <= E <= band.upper:
        raise NumericError(f"E = {E} outside band [{band.lower}, {band.upper}]")
    c = 0.5 * model.trace(E) * band.parity
    return math.acos(max(-1.0, min(1.0, c)))


def energy_at_phase(model: CellModel, band: Band, phi_local):
    """Energy where the local Bloch phase reaches phi_local (root of the trace).

    ``phi_local`` may be an array; its roots are found together by
    ``numerics.bracket_roots`` on the band, after one trace call at the two
    band ends.
    """
    phi = np.asarray(phi_local, dtype=float)
    if not np.all((0.0 < phi) & (phi < math.pi)):
        raise NumericError(f"phi_local must be in (0, pi), got {phi_local}")
    target = np.cos(phi) * band.parity
    f = lambda E: 0.5 * model.trace(E) - target
    ends = np.array([band.lower, band.upper])
    half_lo, half_hi = 0.5 * model.trace(ends)
    roots = bracket_roots(f, np.full(phi.shape, band.lower), np.full(phi.shape, band.upper),
                          half_lo - target, half_hi - target, 1e-13)
    return float(roots) if roots.ndim == 0 else roots


@dataclass(frozen=True)
class KardDerivatives:
    """Energy derivatives of the angles at in-band energies (per meV)."""

    params: KardParams
    phi_p: float | np.ndarray
    phi_pp: float | np.ndarray
    mu_p: float | np.ndarray


def _reject(E, bad, what: str) -> None:
    if np.any(bad):
        raise NearBandEdgeError(f"E = {np.asarray(E)[bad].flat[0]} meV is {what}")


def kard_derivatives(
    cell: Union[CellModel, CellSpec],
    outside: Layer | None = None,
    E: float | np.ndarray = 0.0,
    *,
    band: Band | None = None,
) -> KardDerivatives:
    """phi', phi'', mu' at energy E, via the smooth functions c(E) and g(E).

    c = Tr M / 2 = cos(phi) and g = |M21|^2 = sin^2(phi) sinh^2(mu) are
    smooth across the whole band, so their exact derivatives from one call
    of the cell model give clean angle derivatives even where phi or |M21|
    would have branch issues:

        phi'  = -c' / sin(phi)
        phi'' = -(c'' + cos(phi) phi'^2) / sin(phi)
        mu'   = [g' (1 - c^2) + 2 c c' g] / [(1 - c^2)^2 sinh(2 mu)]

    E may be an array, evaluated in one call; a scalar stays a Python
    scalar throughout.  Every E must be inside an allowed band, and inside
    ``band`` when one is given.
    """
    return _kard_derivatives(as_model(cell, outside), E, band, second=True)


def _kard_derivatives(model: CellModel, E, band: Band | None, second: bool) -> KardDerivatives:
    """``kard_derivatives``; without ``second`` the kernel carries first
    derivatives only and phi'' is nan (the timing closed forms need none)."""
    if band is not None:
        _reject(E, np.less(E, band.lower) | np.greater(E, band.upper),
                f"outside band {band.index} [{band.lower}, {band.upper}]")
    M, c_p, c_pp, g_p = model.derivatives(E, second)
    params = decompose(M)
    _reject(E, np.not_equal(params.band, "allowed"), "not inside an allowed band")
    phi, mu = params.phi, params.mu
    c = np.cos(phi)
    s = np.sin(phi)
    g = np.abs(M.m21) ** 2
    phi_p = -c_p / s
    phi_pp = -(c_pp + c * phi_p * phi_p) / s
    sinh2mu = np.sinh(2.0 * mu)
    one_m_c2 = 1.0 - c * c
    # mu = 0 means |M21| = 0 exactly.  For a cell with no reflection at any
    # energy (a free cell) mu' = 0; for a cell transparent at an isolated
    # energy, mu has a kink and only the combination tanh(mu) mu' -> 0 is
    # meaningful, so 0 is the right limit either way.
    with np.errstate(divide="ignore", invalid="ignore"):
        mu_p = (g_p * one_m_c2 + 2.0 * c * c_p * g) / (one_m_c2 * one_m_c2 * sinh2mu)
    mu_p = np.where(sinh2mu == 0.0, 0.0, mu_p)
    out = (phi, mu, params.chi, phi_p, phi_pp, mu_p)
    if np.ndim(E) == 0:
        out = tuple(float(x) for x in out)
    phi, mu, chi, phi_p, phi_pp, mu_p = out
    return KardDerivatives(KardParams(phi, mu, chi), phi_p=phi_p, phi_pp=phi_pp, mu_p=mu_p)
