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
cell gives exactly diag(e^{-ikw}, e^{+ikw}).  A stack's matrix is that
product in one form: left end cell, core^N (by the Chebyshev identity),
right end cell.

Because the interior propagator is real and the leads are identical, M
always satisfies M22 = conj(M11), M12 = conj(M21), det M = 1 (equivalently
M sigma_z M^dag = sigma_z).  Only m11 and m21 are stored; the conjugate
pair is exact by construction and compositions stay in this form.

For left incidence (D = 0) the cell-referenced amplitudes are t = 1/M11 and
r = M21/M11; |t|^2 + |r|^2 = 1 follows from det M = 1.

Every function takes a scalar energy or an energy array, evaluated in one
pass of numpy arithmetic; a scalar energy gives Python complex entries.
Handed the energy as a ``Jet`` (``energy_jet``), the same layer loop and
products return every entry together with its exact first, and on request
second, energy derivatives (forward-mode differentiation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoTransmissionError, ValidationError, require
from .medium import CONSTANTS, CellSpec, Layer, StackSpec, _integer

__all__ = [
    "TransferMatrix",
    "Amplitudes",
    "Jet",
    "energy_jet",
    "cell_matrix",
    "stack_matrix",
    "amplitudes",
]

class Jet:
    """A quantity with its energy derivatives: (v, dv/dE, d2v/dE2), where
    d2 is None for a first-order jet.

    Sums, products and quotients follow the Leibniz and quotient rules, so
    code written for plain numbers -- the layer product, the matrix product
    ``@``, ``amplitudes`` -- carries exact derivatives when handed jets, and
    computes the value part by the very operations it does on numbers.
    Parts are scalars or arrays alike.
    """

    __slots__ = ("v", "d1", "d2")
    __array_ufunc__ = None  # numpy operands defer to the reflected methods

    def __init__(self, v, d1, d2):
        self.v, self.d1, self.d2 = v, d1, d2

    def chain(self, f, f1, f2) -> "Jet":
        """F(self), given F, F' and F'' at the value part."""
        d1, d2 = self.d1, self.d2
        return Jet(f, f1 * d1, None if d2 is None else f2 * (d1 * d1) + f1 * d2)

    def __add__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.v + o, self.d1, self.d2)
        return Jet(self.v + o.v, self.d1 + o.d1, None if self.d2 is None else self.d2 + o.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.v, -self.d1, None if self.d2 is None else -self.d2)

    def __sub__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.v - o, self.d1, self.d2)
        return Jet(self.v - o.v, self.d1 - o.d1, None if self.d2 is None else self.d2 - o.d2)

    def __mul__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.v * o, self.d1 * o, None if self.d2 is None else self.d2 * o)
        return Jet(self.v * o.v, self.d1 * o.v + self.v * o.d1, None if self.d2 is None
                   else self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.v / o, self.d1 / o, None if self.d2 is None else self.d2 / o)
        q = self.v / o.v
        q1 = (self.d1 - q * o.d1) / o.v
        return Jet(q, q1, None if self.d2 is None
                   else (self.d2 - 2.0 * q1 * o.d1 - q * o.d2) / o.v)

    def __rtruediv__(self, o):
        return Jet(o, 0.0, None if self.d2 is None else 0.0) / self

    def conjugate(self) -> "Jet":
        return Jet(self.v.conjugate(), self.d1.conjugate(),
                   None if self.d2 is None else self.d2.conjugate())

    def sqrt(self) -> "Jet":
        r = math.sqrt(self.v) if isinstance(self.v, float) else np.sqrt(self.v)
        return self.chain(r, 0.5 / r, -0.25 / (r * self.v))


def energy_jet(E, second: bool = False) -> Jet:
    """The energy as the jet (E, 1, 0), or (E, 1) without ``second``: pass
    it for E to differentiate once or twice."""
    E = np.asarray(E, dtype=float)
    return Jet(float(E) if E.ndim == 0 else E, 1.0, 0.0 if second else None)


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 coefficient transfer matrix in its time-reversal-symmetric form.

    m11 and m21 are complex scalars, or complex arrays holding one matrix
    per energy, or jets of either.  ref_energy tags the energy the matrix
    was evaluated at, so that ``@`` can refuse to mix energies;
    matrices made by abstract reconstruction leave it None.
    """

    m11: complex | np.ndarray
    m21: complex | np.ndarray
    ref_energy: float | np.ndarray | None = None

    @property
    def trace(self) -> float | np.ndarray:
        return 2.0 * self.m11.real

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        """Matrix product self @ other; their energies must agree."""
        ea, eb = self.ref_energy, other.ref_energy
        if not (ea is None or eb is None or ea is eb or np.allclose(ea, eb, 1e-12, 1e-12)):
            raise ValidationError(f"composing matrices at different energies: {ea} vs {eb}")
        return TransferMatrix(
            m11=self.m11 * other.m11 + self.m21.conjugate() * other.m21,
            m21=self.m21 * other.m11 + self.m11.conjugate() * other.m21,
            ref_energy=ea if ea is not None else eb,
        )

    def power(self, n: int) -> "TransferMatrix":
        """M^n by binary exponentiation (n >= 0)."""
        n = _integer(n, "n", 0)
        result, base = TransferMatrix(1.0 + 0.0j, 0.0 + 0.0j, self.ref_energy), self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result


@dataclass(frozen=True)
class Amplitudes:
    """Transmission/reflection amplitudes for left incidence.

    Their phases are cell-referenced: the incident wave has zero phase at
    the left face of the structure and the transmitted wave at its right
    face.  ``scattering`` re-references them to the coordinate origin.
    """

    t: complex
    r: complex

    @property
    def T(self) -> float:
        return abs(self.t) ** 2


def _cos_and_sinc(ksq, w: float):
    """cos(kw) and sin(kw)/k as functions of k^2, valid for either sign.

    For k^2 < 0 these are cosh(|k|w) and sinh(|k|w)/|k|.  Near k^2 = 0 a
    series in k^2 w^2 avoids the 0/0.  Elementwise over an array of k^2.
    A scalar k^2 branches in Python rather than masking arrays, which is
    several times faster for one number, and gives Python floats rounded as
    numpy rounds the array element: numpy's elementary functions, since the
    math module's round differently.  A jet k^2 gives jets.
    """
    if isinstance(ksq, Jet):
        c, s = _cos_and_sinc(ksq.v, w)
        s1, s2 = _sinc_slopes(ksq.v, w, c, s)
        # d cos(kw)/d(k^2) = -w sin(kw)/(2k)
        return ksq.chain(c, -0.5 * w * s, -0.5 * w * s1), ksq.chain(s, s1, s2)
    if not isinstance(ksq, np.ndarray):
        x = ksq * w * w
        if abs(x) < 1e-6:
            return 1.0 - x / 2.0 + x * x / 24.0, w * (1.0 - x / 6.0 + x * x / 120.0)
        if ksq > 0.0:
            k = math.sqrt(ksq)
            return float(np.cos(k * w)), float(np.sin(k * w)) / k
        kappa = math.sqrt(-ksq)
        return float(np.cosh(kappa * w)), float(np.sinh(kappa * w)) / kappa
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


#: Taylor coefficients in x = k^2 w^2 of d/dx and d2/dx2 of sin(sqrt x)/sqrt x,
#: whose series is sum_n (-x)^n / (2n + 1)!.  For |x| < 1, where the closed
#: forms below lose digits to cancellation (all of them as x -> 0), ten terms
#: reach 1 ulp; from |x| = 1 on, the closed forms hold 1e-15 and 1e-14 relative.
_SINC_SERIES = tuple(((-1.0) ** (n + 1) * (n + 1) / math.factorial(2 * n + 3),
                      (-1.0) ** n * (n + 1) * (n + 2) / math.factorial(2 * n + 5))
                     for n in reversed(range(10)))


def _sinc_series(x):
    """The two series at x (a scalar or an array), by Horner."""
    s1 = s2 = 0.0
    for a1, a2 in _SINC_SERIES:
        s1, s2 = s1 * x + a1, s2 * x + a2
    return s1, s2


def _sinc_slopes(ksq, w: float, c, s):
    """First and second derivatives of s = sin(kw)/k with respect to k^2,
    given c = cos(kw) and s: (w c - s)/(2k^2), and (-w^2 s/2 - 3 s')/(2k^2)."""
    x = ksq * w * w
    if not (isinstance(x, np.ndarray) or abs(x) < 1.0):  # a scalar past the series: k^2 != 0
        s1 = (w * c - s) / (2.0 * ksq)
        return s1, (-0.5 * w * w * s - 3.0 * s1) / (2.0 * ksq)
    series = abs(x) < 1.0
    if series is True or series.all():
        s1, s2 = _sinc_series(x)
        return w**3 * s1, w**5 * s2
    with np.errstate(divide="ignore", invalid="ignore"):
        s1 = (w * c - s) / (2.0 * ksq)
        s2 = (-0.5 * w * w * s - 3.0 * s1) / (2.0 * ksq)
    if series.any():
        near = _sinc_series(x[series])
        s1[series], s2[series] = w**3 * near[0], w**5 * near[1]
    return s1, s2


def _layer_entries(E, layer: Layer) -> tuple:
    """((P11, P12), (P21, P22)) of the propagator across the layer, each
    shaped like E (jets for a jet E)."""
    ksq = (E - layer.potential) * layer.mass_ratio / CONSTANTS.hbar2_over_2m0
    c, s = _cos_and_sinc(ksq, layer.width)
    m = layer.mass_ratio
    return (c, m * s), (-ksq * s / m, c)


def _interior_propagator(E, cell: CellSpec) -> tuple:
    """Entries (T11, T12, T21, T22) of the layer product, last layer leftmost.

    Each distinct layer is evaluated once (a symmetric cell repeats its
    outer layers)."""
    entries = {layer: _layer_entries(E, layer) for layer in set(cell.layers)}
    first, *rest = cell.layers
    (t11, t12), (t21, t22) = entries[first]
    for layer in rest:
        (a, b), (c, d) = entries[layer]
        t11, t12, t21, t22 = (a * t11 + b * t21, a * t12 + b * t22,
                              c * t11 + d * t21, c * t12 + d * t22)
    return t11, t12, t21, t22


def _complex(re, im):
    """re + i im without rounding: a complex array, or a Python complex
    (or a jet of either)."""
    if isinstance(re, Jet):
        return Jet(_complex(re.v, im.v), _complex(re.d1, im.d1),
                   None if re.d2 is None else _complex(re.d2, im.d2))
    if not isinstance(re, np.ndarray):
        return complex(re, im)
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def cell_matrix(E, cell: CellSpec, outside: Layer) -> TransferMatrix:
    """Coefficient transfer matrix of one cell between identical leads.

    Requires a propagating lead channel (every E above the lead band bottom).
    A jet energy gives jet entries.
    """
    jet = isinstance(E, Jet)
    energies = E.v if jet else E
    if type(energies) is not float:  # a scalar jet's value is one already
        energies = np.asarray(energies, dtype=float)
        energies = float(energies) if energies.ndim == 0 else energies
    require(energies > outside.potential, NoTransmissionError,
            "E = {E} meV is at or below the lead band bottom ({V} meV)",
            E=energies, V=outside.potential)
    if jet:
        energies = E
    ksq = (energies - outside.potential) * outside.mass_ratio / CONSTANTS.hbar2_over_2m0
    q = (ksq.sqrt() if jet else math.sqrt(ksq) if type(ksq) is float
         else np.sqrt(ksq)) / outside.mass_ratio
    t11, t12, t21, t22 = _interior_propagator(energies, cell)
    # M = W^{-1} T^{-1} W with W = [[1, 1], [iq, -iq]]; written out, with
    # T^{-1} = [[T22, -T12], [-T21, T11]] (det T = 1), this is:
    a, b = t21 / q, q * t12
    m11 = _complex(0.5 * (t11 + t22), 0.5 * (a - b))
    m21 = _complex(0.5 * (t22 - t11), -0.5 * (a + b))
    return TransferMatrix(m11, m21, ref_energy=E)


def stack_matrix(E, stack: StackSpec) -> TransferMatrix:
    """Total transfer matrix M_left (M_core)^N M_right of a stack.

    The core's power is Abeles' M^N = U_{N-1}(c) M - U_{N-2}(c) 1, with
    c = Tr M / 2 and the Chebyshev U from their three-term recurrence;
    squaring would round away an opaque cell's |t_N|^2.  A stack without
    end cells gives the bare array matrix.  A jet energy gives jet entries.
    """
    core = cell_matrix(E, stack.core, stack.outside)
    c = 0.5 * (core.m11 + core.m11.conjugate())
    u_prev, u = 0.0, 1.0  # U_{-1}, U_0
    for _ in range(stack.replicas - 1):
        u_prev, u = u, 2.0 * c * u - u_prev
    total = TransferMatrix(u * core.m11 - u_prev, u * core.m21, core.ref_energy)
    if stack.left_arc is not None:
        total = cell_matrix(E, stack.left_arc, stack.outside) @ total
    if stack.right_arc is not None:
        total = total @ cell_matrix(E, stack.right_arc, stack.outside)
    return total


def amplitudes(M: TransferMatrix) -> Amplitudes:
    """Cell-referenced t, r for left incidence."""
    return Amplitudes(t=1.0 / M.m11, r=M.m21 / M.m11)
