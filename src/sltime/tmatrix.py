"""Plane-wave transfer matrices for piecewise-constant structures.

Inside the structure the wavefunction is propagated as u = (psi, psi'/m*),
which is continuous across mass steps.  A cell embedded between identical
leads is then summarized by the 2x2 matrix M acting on plane-wave
coefficients,

    (A, B)_left = M (C, D)_right,

where the left coefficients are phase-referenced to the cell's left edge and
the right ones to its right edge, i.e. psi = A e^{ik(x-a)} + B e^{-ik(x-a)}
on the left of a cell spanning [a, b].  With this reference choice the
matrix of n abutting cells is the ordered product M_1 ... M_n, and a free
cell gives exactly diag(e^{-ikw}, e^{+ikw}).

Because the interior propagator is real and the leads are identical, M
always satisfies M22 = conj(M11), M12 = conj(M21), det M = 1 (equivalently
M sigma_z M^dag = sigma_z).  Only m11 and m21 are stored; the conjugate
pair is exact by construction and compositions stay in this form.

For left incidence (D = 0) the cell-referenced amplitudes are t = 1/M11 and
r = M21/M11; |t|^2 + |r|^2 = 1 follows from det M = 1.

Every function takes a scalar energy or an energy array, evaluated in one
pass of numpy arithmetic; a scalar energy gives plain complex entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoTransmissionError, NumericError, ValidationError
from .medium import CONSTANTS, CellSpec, Layer, PhysConstants, StackSpec

__all__ = [
    "CELL_REFERENCED",
    "ORIGIN_REFERENCED",
    "TransferMatrix",
    "Amplitudes",
    "layer_matrix",
    "cell_matrix",
    "stack_matrix",
    "compose",
    "amplitudes",
]

CELL_REFERENCED = "cell-referenced"
ORIGIN_REFERENCED = "origin-referenced"


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 coefficient transfer matrix in its time-reversal-symmetric form.

    m11 and m21 are complex scalars, or complex arrays holding one matrix
    per energy.  ref_energy and cell_width tag where the matrix came from;
    matrices made by abstract reconstruction (no underlying potential) leave
    them None.
    """

    m11: complex | np.ndarray
    m21: complex | np.ndarray
    ref_energy: float | np.ndarray | None = None
    cell_width: float | None = None

    @property
    def trace(self) -> float | np.ndarray:
        return 2.0 * self.m11.real

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        return compose(self, other)

    def power(self, n: int) -> "TransferMatrix":
        """M^n by binary exponentiation (n >= 0)."""
        if n < 0:
            raise NumericError(f"negative power {n}")
        width = None if self.cell_width is None else n * self.cell_width
        result = TransferMatrix(1.0 + 0.0j, 0.0 + 0.0j, self.ref_energy, None)
        base = self
        m = n
        while m:
            if m & 1:
                result = result @ base
            base = base @ base
            m >>= 1
        return replace(result, cell_width=width)


def compose(left: TransferMatrix, right: TransferMatrix) -> TransferMatrix:
    """Matrix product left @ right; widths add, energies must agree."""
    ea, eb = left.ref_energy, right.ref_energy
    same = ea is None or eb is None or ea is eb or np.allclose(ea, eb, 1e-12, 1e-12)
    if not same:
        raise ValidationError(f"composing matrices at different energies: {ea} vs {eb}")
    energy = ea if ea is not None else eb
    wa, wb = left.cell_width, right.cell_width
    width = wa + wb if (wa is not None and wb is not None) else None
    return TransferMatrix(
        m11=left.m11 * right.m11 + left.m21.conjugate() * right.m21,
        m21=left.m21 * right.m11 + left.m11.conjugate() * right.m21,
        ref_energy=energy,
        cell_width=width,
    )


@dataclass(frozen=True)
class Amplitudes:
    """Transmission/reflection amplitudes for left incidence.

    The convention flag records whether their phases are referenced to the
    cell edges or to the coordinate origin (the two differ by propagation
    phases; see scattering.shift_convention).
    """

    t: complex
    r: complex
    convention: str = CELL_REFERENCED

    def __post_init__(self) -> None:
        if self.convention not in (CELL_REFERENCED, ORIGIN_REFERENCED):
            raise ValidationError(f"unknown convention {self.convention!r}")

    @property
    def T(self) -> float:
        return abs(self.t) ** 2

    @property
    def R(self) -> float:
        return abs(self.r) ** 2

    @property
    def unitarity_defect(self) -> float:
        return abs(self.T + self.R - 1.0)


def _cos_and_sinc(ksq, w: float):
    """cos(kw) and sin(kw)/k as functions of k^2, valid for either sign.

    For k^2 < 0 these are cosh(|k|w) and sinh(|k|w)/|k|.  Near k^2 = 0 a
    series in k^2 w^2 avoids the 0/0.  Elementwise over an array of k^2.
    A scalar k^2 branches in Python rather than masking arrays, which is
    several times faster for one number; it calls numpy's elementary
    functions all the same, since the math module's round differently.
    """
    if not isinstance(ksq, np.ndarray):
        x = ksq * w * w
        if abs(x) < 1e-6:
            return 1.0 - x / 2.0 + x * x / 24.0, w * (1.0 - x / 6.0 + x * x / 120.0)
        if ksq > 0.0:
            k = math.sqrt(ksq)
            return np.cos(k * w), np.sin(k * w) / k
        kappa = math.sqrt(-ksq)
        return np.cosh(kappa * w), np.sinh(kappa * w) / kappa
    x = ksq * w * w
    k = np.sqrt(np.abs(ksq))
    kw = k * w
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = np.where(ksq > 0.0, np.cos(kw), np.cosh(kw))
        s = np.where(ksq > 0.0, np.sin(kw), np.sinh(kw)) / k
    small = np.abs(x) < 1e-6
    if small.any():
        c = np.where(small, 1.0 - x / 2.0 + x * x / 24.0, c)
        s = np.where(small, w * (1.0 - x / 6.0 + x * x / 120.0), s)
    return c, s


def _layer_entries(E, layer: Layer, consts: PhysConstants) -> tuple:
    """((P11, P12), (P21, P22)) of the layer propagator, each shaped like E."""
    ksq = (E - layer.potential) * layer.mass_ratio / consts.hbar2_over_2m0
    c, s = _cos_and_sinc(ksq, layer.width)
    m = layer.mass_ratio
    return (c, m * s), (-ksq * s / m, c)


def layer_matrix(E, layer: Layer, consts: PhysConstants = CONSTANTS) -> np.ndarray:
    """Propagator for u = (psi, psi'/m*) across one uniform layer; real, det 1.

    Shape (2, 2) + shape(E): one 2x2 matrix per energy.
    """
    return np.array(_layer_entries(E, layer, consts))


def _interior_propagator(E, cell: CellSpec, consts: PhysConstants) -> tuple:
    """Entries (T11, T12, T21, T22) of the layer product, last layer leftmost."""
    first, *rest = cell.layers
    (t11, t12), (t21, t22) = _layer_entries(E, first, consts)
    for layer in rest:
        (a, b), (c, d) = _layer_entries(E, layer, consts)
        t11, t12, t21, t22 = (a * t11 + b * t21, a * t12 + b * t22,
                              c * t11 + d * t21, c * t12 + d * t22)
    return t11, t12, t21, t22


def _complex(re, im):
    """re + i im without rounding: a complex array, or a Python complex."""
    if np.ndim(re) == 0:
        return complex(re, im)
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def cell_matrix(
    E, cell: CellSpec, outside: Layer, consts: PhysConstants = CONSTANTS
) -> TransferMatrix:
    """Coefficient transfer matrix of one cell between identical leads.

    Requires a propagating lead channel (every E above the lead band bottom).
    """
    energies = np.asarray(E, dtype=float)
    below = energies <= outside.potential
    if below.any():
        raise NoTransmissionError(f"E = {energies[below].flat[0]} meV is at or below the "
                                  f"lead band bottom ({outside.potential} meV)")
    if energies.ndim == 0:
        energies = float(energies)
    k0 = np.sqrt((energies - outside.potential) * outside.mass_ratio / consts.hbar2_over_2m0)
    q = k0 / outside.mass_ratio
    t11, t12, t21, t22 = _interior_propagator(energies, cell, consts)
    # M = W^{-1} T^{-1} W with W = [[1, 1], [iq, -iq]]; written out, with
    # T^{-1} = [[T22, -T12], [-T21, T11]] (det T = 1), this is:
    m11 = _complex(0.5 * (t11 + t22), 0.5 * (t21 / q - q * t12))
    m21 = _complex(0.5 * (t22 - t11), -0.5 * (t21 / q + q * t12))
    return TransferMatrix(m11, m21, ref_energy=E, cell_width=cell.width)


def stack_matrix(E, stack: StackSpec, consts: PhysConstants = CONSTANTS) -> TransferMatrix:
    """Total transfer matrix of a stack, ordered left cell first.

    Each distinct cell is evaluated once; the product runs cell by cell.
    """
    matrices = {}
    total = TransferMatrix(1.0 + 0.0j, 0.0 + 0.0j, ref_energy=E, cell_width=0.0)
    for cell in stack.cells():
        if cell not in matrices:
            matrices[cell] = cell_matrix(E, cell, stack.outside, consts)
        total = total @ matrices[cell]
    return total


def amplitudes(M: TransferMatrix) -> Amplitudes:
    """Cell-referenced t, r for left incidence."""
    return Amplitudes(t=1.0 / M.m11, r=M.m21 / M.m11, convention=CELL_REFERENCED)
