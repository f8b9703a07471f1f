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

In a forbidden band the Bloch phase is p*pi plus an imaginary part
arccosh(|Tr M|/2); decompose classifies rather than fails there, returns
only the real part p*pi, and the angle machinery applies only to the
allowed classification.

Energy derivatives are taken through the two smooth real functions
c = Tr M / 2 and g = |M21|^2 rather than through phi and mu directly,
which avoids branch cuts and |.| kinks entirely.  Their derivatives are
exact: a potential cell propagates them through its layer product
(``tmatrix.Jet``), the closed-form model differentiates its two laws.

Matrices, angles and derivatives may hold one energy or an array of them;
array inputs give array fields, scalar inputs plain floats.

Bands are counted, not sampled: each gap holds one Dirichlet eigenvalue of
the cell (Magnus & Winkler, *Hill's Equation*, ch. 2), the n-th where the
Pruefer angle of psi(0) = 0, increasing with energy, reaches n*pi (Pryce).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Union

import numpy as np

from .errors import NearBandEdgeError, NumericError, ValidationError, require
from .medium import CONSTANTS, CellSpec, EnergyGrid, Layer
from .numerics import bracket_roots
from .tmatrix import TransferMatrix, _complex, _layer_entries, cell_matrix, energy_jet

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
    "energy_at_phase",
    "kard_derivatives",
]

#: |Tr M|/2 within this distance of 1 is classified as a band edge.
EDGE_TOL = 1e-9

#: band edges are polished to this width (meV)
EDGE_XTOL = 1e-12

#: energies of the table that narrows the root brackets of ``bands``
_TABLE = 64

#: band labels, indexed by allowed + 2 * edge
_LABELS = np.array(["forbidden", "allowed", "edge"])


@dataclass(frozen=True)
class KardParams:
    """Angles of one cell matrix, with its band classification.

    band is one of 'allowed', 'forbidden', 'edge'.  In an allowed band,
    (phi, mu, chi) are as in the module docstring.  In a forbidden band phi
    is the real part p*pi of the complex Bloch phase; mu and chi are
    meaningless there (nan).
    For a matrix array every field is an array, band an array of labels.
    """

    phi: float | np.ndarray
    mu: float | np.ndarray
    chi: float | np.ndarray
    band: str | np.ndarray = "allowed"


def decompose(M: TransferMatrix) -> KardParams:
    """Angles and band classification of a cell matrix (or matrix array).

    In an allowed band phi is placed in (0, 2*pi): arccos of the half-trace
    gives (0, pi) and the sign of Im M11 = -sin(phi) cosh(mu) selects the
    half-plane.
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
        s = np.sin(phi)
        r = np.abs(m21)
        mu = np.arcsinh(r / np.abs(s))
        z = np.where(s > 0.0, 1j, -1j) * m21
        chi = np.where(r == 0.0, 0.0, np.arctan2(z.imag, z.real))
    return KardParams(
        phi=np.where(allowed, phi, np.where(c > 0, 0.0, math.pi)),
        mu=np.where(allowed, mu, math.nan),
        chi=np.where(allowed, chi, math.nan),
        band=_LABELS[allowed + 2 * edge],
    )


def _decompose_one(m11: complex, m21: complex) -> KardParams:
    """``decompose`` for one matrix: Python branches instead of array masks,
    numpy's elementary functions as on arrays, so both agree bit for bit."""
    c = m11.real
    edge = abs(abs(c) - 1.0) <= EDGE_TOL
    if edge or abs(c) > 1.0:
        return KardParams(phi=0.0 if c > 0 else math.pi, mu=math.nan, chi=math.nan,
                          band="edge" if edge else "forbidden")
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
    require(params.band == "allowed", NearBandEdgeError,
            "cannot reconstruct a matrix from {band} parameters", band=params.band)
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
    These take a scalar energy or an array of energies, and answer in kind;
    ``bands`` lists (lower, upper, parity) of the bands in [e_lo, e_hi].
    """

    def trace(self, E: float | np.ndarray) -> float | np.ndarray: ...

    def bands(self, e_lo: float, e_hi: float) -> list[tuple[float, float, int]]: ...

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

    def bands(self, e_lo: float, e_hi: float) -> list[tuple[float, float, int]]:
        """Allowed bands in [e_lo, e_hi], certified by the Dirichlet count.

        At lambda_n (theta = n*pi, ``_pruefer``) T12 = 0 and det T = 1, so
        c = Tr M / 2 = (T11 + 1/T11) / 2 has |c| >= 1 and the sign (-1)^n.
        An energy with theta in [(n-1)*pi, n*pi) and s = (-1)^(n-1) thus lies
        in gap n-1, band n or gap n (position 2n-2, 2n-1 or 2n) as s*c >= 1,
        |c| < 1 or s*c <= -1.  A fixed table of energies places the window
        ends and narrows the brackets of three ``bracket_roots`` calls, whose
        end signs these positions certify: they add lambda_n to a gap and the
        centre (c = 0) to a band that no table energy hit, then polish an
        edge between every two points one position apart.  A lambda_n gets
        |c| > 1 strictly, so an edge search stops at it only if the edge is.

        Where gap n is closed (|c| touches 1 without crossing it, as in a
        uniform cell), |c| - 1 is quadratic in energy and rounding leaves
        its polished edges about sqrt(eps) apart.  So a gap with |c| within
        ``EDGE_TOL`` of 1 both at lambda_n and midway between its polished
        edges gets lambda_n as the common edge of its two bands.  lambda_n
        alone does not decide it: in a mirror-symmetric cell every lambda_n
        is an edge of its gap, open or not.
        """
        E = np.linspace(e_lo, e_hi, _TABLE)
        theta, c = self._pruefer(E), 0.5 * self.trace(E)
        n = np.floor(theta / math.pi).astype(int) + 1
        pos = 2 * n - 1 + ((-1.0) ** (n - 1) * c <= -1.0) - ((-1.0) ** (n - 1) * c >= 1.0)
        if (np.diff(pos) < 0).any():
            raise NumericError(f"band order lost to rounding in [{e_lo}, {e_hi}] meV")
        inner = np.arange(pos[0] + 1, pos[-1])
        missing = inner[pos[np.searchsorted(pos, inner)] != inner]
        def merged(*new):  # points (E, pos, c) at positions no point has, put in order
            order = np.argsort(np.concatenate([pos, new[1]]), kind="stable")
            return [np.concatenate(pair)[order] for pair in zip((E, pos, c), new)]
        m = missing[missing % 2 == 0] // 2
        i = np.searchsorted(pos, 2 * m)
        lam = bracket_roots(lambda x: self._pruefer(x) - m * math.pi, E[i - 1], E[i],
                            theta[i - 1] - m * math.pi, theta[i] - m * math.pi, EDGE_XTOL)
        size = np.abs(0.5 * self.trace(lam))
        near = size - 1.0 <= EDGE_TOL
        touching = dict(zip(m[near], lam[near]))
        E, pos, c = merged(lam, 2 * m, (-1.0) ** m * np.maximum(size, np.nextafter(1.0, 2.0)))
        m = (missing[missing % 2 == 1] + 1) // 2
        i, s = np.searchsorted(pos, 2 * m - 1), (-1.0) ** (m - 1)
        centre = bracket_roots(lambda x: s * 0.5 * self.trace(x), E[i - 1], E[i],
                               s * c[i - 1], s * c[i], EDGE_XTOL)
        E, pos, c = merged(centre, 2 * m - 1, 0.0 * centre)
        q = np.flatnonzero(np.diff(pos) == 1)
        m = (pos[q] + 2) // 2
        s, shift = (-1.0) ** (m - 1), np.where(pos[q] % 2 == 0, -1.0, 1.0)  # s*c = 1 or -1
        edges = bracket_roots(lambda x: s * 0.5 * self.trace(x) + shift, E[q], E[q + 1],
                              s * c[q] + shift, s * c[q + 1] + shift, EDGE_XTOL)
        lower, upper = (dict(zip(m[k], edges[k])) for k in (shift < 0, shift > 0))
        if touching:  # gap n closed to rounding: lambda_n is the common edge
            gap = np.array(list(touching))
            mid = np.array([0.5 * (upper[g] + lower[g + 1]) for g in gap])
            for g in gap[np.abs(0.5 * self.trace(mid)) - 1.0 <= EDGE_TOL]:
                upper[g] = lower[g + 1] = touching[g]
        spans = [(float(lower.get(b, e_lo)), float(upper.get(b, e_hi)), 1 if b % 2 else -1)
                 for b in range((pos[0] + 2) // 2, (pos[-1] + 1) // 2 + 1)]
        # a band that the window meets only within the polish width of an end is not in it
        return [span for span in spans if span[1] - span[0] > EDGE_XTOL
                or e_lo < span[0] <= span[1] < e_hi]

    def _pruefer(self, E: np.ndarray) -> np.ndarray:
        """Unwrapped angle theta, at the right face, of (psi, psi'/m*) started
        as (0, 1) at the left.  A layer turns the pair by the angle between
        its two face values, up to whole turns: none in a barrier, which turns
        it by less than pi; in a well, the count that brings the turn within pi
        of k*w, its exact turn in the frame (psi, psi'/k), within pi/2 of this.
        """
        psi, p, theta = 0.0, 1.0, 0.0
        for layer in self.cell.layers:
            (a, b), (c, d) = _layer_entries(E, layer, layer.width)
            ksq = (E - layer.potential) * layer.mass_ratio / CONSTANTS.hbar2_over_2m0
            kw = np.sqrt(np.maximum(ksq, 0.0)) * layer.width
            psi, p, psi0, p0 = a * psi + b * p, c * psi + d * p, psi, p
            turn = np.arctan2(p0 * psi - psi0 * p, p0 * p + psi0 * psi)
            theta = theta + turn + 2.0 * math.pi * np.round((kw - turn) / (2.0 * math.pi))
        return theta


def as_model(cell: Union[CellModel, CellSpec], outside: Layer | None) -> CellModel:
    """Accept either a CellModel or a raw (CellSpec, outside) pair."""
    if isinstance(cell, CellSpec):
        if outside is None:
            raise ValidationError("a CellSpec needs its lead layer ('outside')")
        return PotentialCell(cell, outside)
    return cell


@dataclass(frozen=True)
class Band:
    """One allowed band (or its part inside the window), ``index`` counted in
    the window.  parity is the sign s in Tr M / 2 = s * cos(phi_local), where
    phi_local runs 0 -> pi across the band as E increases; odd-numbered bands
    of the spectrum have s = +1.  ``lower_is_edge``/``upper_is_edge``
    distinguish true band edges from window truncation.
    """

    index: int
    lower: float
    upper: float
    parity: int
    lower_is_edge: bool
    upper_is_edge: bool

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def interior(self, margin: float) -> tuple[float, float]:
        pad = margin * self.width
        return self.lower + pad, self.upper - pad


def band_structure(
    cell: Union[CellModel, CellSpec],
    outside: Layer | None = None,
    *,
    grid: EnergyGrid,
) -> list[Band]:
    """Allowed bands of the periodic crystal built from this cell, in the
    window from the first to the last sample of ``grid``.

    Only the two ends of the grid matter: the model's ``bands`` lists the
    bands of the window, and for a potential cell that list is certified by
    the Dirichlet count (see ``PotentialCell.bands``), so no sample spacing
    can hide a band, however narrow.  Edges are polished to ``EDGE_XTOL``.
    Bands cut by the window are included with the corresponding
    ``*_is_edge`` flag cleared.
    """
    model = as_model(cell, outside)
    e_lo, e_hi = float(grid.samples[0]), float(grid.samples[-1])
    return [Band(index=i, lower=lower, upper=upper, parity=parity,
                 lower_is_edge=lower != e_lo, upper_is_edge=upper != e_hi)
            for i, (lower, upper, parity) in enumerate(model.bands(e_lo, e_hi), start=1)]


def energy_at_phase(model: CellModel, band: Band, phi_local):
    """Energy where the local Bloch phase reaches phi_local (root of the trace).

    ``phi_local`` may be an array; its roots are found together by
    ``numerics.bracket_roots`` on the band, after one trace call at the two
    band ends.
    """
    phi = np.asarray(phi_local, dtype=float)
    if not np.all((0.0 < phi) & (phi < math.pi)):
        raise ValidationError(f"phi_local must be in (0, pi), got {phi_local}")
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


def kard_derivatives(
    cell: Union[CellModel, CellSpec],
    outside: Layer | None,
    E: float | np.ndarray,
    *,
    band: Band,
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
    scalar throughout.  Every E must be inside ``band`` and classified
    allowed there; the first that is not (a NaN never is) raises
    NearBandEdgeError.
    """
    return _kard_derivatives(as_model(cell, outside), E, band, second=True)[0]


def _require_in_band(band: Band, E) -> None:
    """Refuse the first E outside [band.lower, band.upper] (a NaN is never
    inside) with NearBandEdgeError: the single-band closed forms hold
    nowhere else."""
    require((band.lower <= E) & (E <= band.upper), NearBandEdgeError,
            "E = {E} meV is outside band {n} [{lo}, {hi}]",
            E=E, n=band.index, lo=band.lower, hi=band.upper)


def _kard_derivatives(model: CellModel, E, band: Band, second: bool) -> tuple:
    """``kard_derivatives`` and the cell matrix, ``model.matrix(E)``, it came
    from; without ``second`` the kernel carries first derivatives only and
    phi'' is nan (the timing closed forms need none)."""
    _require_in_band(band, E)
    M, c_p, c_pp, g_p = model.derivatives(E, second)
    params = decompose(M)
    require(params.band == "allowed", NearBandEdgeError,
            "E = {E} meV is not inside an allowed band", E=E)
    phi, mu = params.phi, params.mu
    c = np.cos(phi)
    s = np.sin(phi)
    g = np.square(np.abs(M.m21))  # x * x for a scalar too, where ** 2 would call C pow
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
    return KardDerivatives(KardParams(phi, mu, chi), phi_p=phi_p, phi_pp=phi_pp, mu_p=mu_p), M
