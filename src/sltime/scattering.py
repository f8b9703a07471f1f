"""Stationary scattering observables of a finite stack.

Everything here works in a fixed coordinate frame with the stack centered
on the origin: the scattering region occupies [-W/2, +W/2] where W is the
total stack width, and the uniform leads extend to either side.  Two phase
conventions coexist:

- *cell-referenced* amplitudes (what ``tmatrix.amplitudes`` returns) take
  the incident wave to have zero phase at the left face and the transmitted
  wave zero phase at the right face.  Convenient for matrix algebra, but
  the phases carry no information about where the stack sits.
- *origin-referenced* amplitudes describe the actual solution
  psi = e^{ikx} + r e^{-ikx} (left), t e^{ikx} (right).  Energy derivatives
  of these phases are the ones with a time interpretation, because moving
  the stack moves the arrival events.

``shift_convention`` converts the first into the second.  The S-matrix,
the Smith lifetime matrix Q = -i hbar S^dagger dS/dE, and the dwell-time
formula all require origin-referenced input and raise otherwise instead of
silently producing phases with the wrong reference.

The interior wavefunction is reconstructed by back-propagating the
transmitted plane wave through the layer sequence with the same
(psi, psi'/m*) propagators used for the transfer matrix.  A position array
is evaluated in one pass: each point's layer comes from one
``searchsorted`` over the interfaces, and each layer that holds points
propagates all of them from its left interface in one array call.  Backward
propagation through a barrier grows the evanescent component, which is the
numerically stable direction (the forward problem would difference two
growing exponentials); for the layer thicknesses and barrier heights this
package targets the growth factors are modest anyway.

The dwell time over a window [x_L, x_R] enclosing the stack splits into
three named pieces:

- a smooth, window-independent part  hbar (|t|^2 eta' + |r|^2 delta')
  built from origin-referenced phase derivatives; it equals the (1,1)
  element of the Smith matrix,
- an oscillatory part  -(hbar |r| / 2E) sin(2 k x_L - delta)  from the
  standing-wave pattern the reflected wave sets up in the left lead,
- a classical crossing part  (x_R - x_L)|t|^2/v - 2 x_L |r|^2/v : the
  transmitted fraction crosses the whole window, the reflected fraction
  travels from x_L to the stack and back.

Their sum is the integral of |psi|^2 over the window for the
flux-normalized stationary state, which ``dwell_time`` also evaluates by
adaptive quadrature of the reconstructed density as an independent check;
the quadrature hands the density one position array per refinement level.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .medium import CONSTANTS, PhysConstants, StackSpec, _layers_mirror_equal
from .numerics import adaptive_simpson
from .tmatrix import (
    ORIGIN_REFERENCED,
    Amplitudes,
    _layer_entries,
    amplitudes,
    energy_jet,
    stack_matrix,
)

__all__ = [
    "shift_convention",
    "SMatrix",
    "s_matrix",
    "SmithMatrix",
    "smith_matrix",
    "interior_wavefunction",
    "probability_current",
    "DwellResult",
    "dwell_time",
]


# ---------------------------------------------------------------------------
# phase conventions


def _check_shift_args(k: float, a: float, w: float) -> None:
    if not (math.isfinite(k) and k > 0.0):
        raise ValidationError(f"lead wavenumber must be positive and finite, got {k}")
    if not (math.isfinite(a) and math.isfinite(w)) or w < 0.0:
        raise ValidationError(f"bad geometry: left face {a}, width {w}")


def shift_convention(amp: Amplitudes, k: float, a: float, w: float) -> Amplitudes:
    """Re-reference cell-edge amplitudes to the coordinate origin.

    ``a`` is the position of the left face of the scattering region and
    ``w`` its width, so the right face sits at a + w.  The transmitted
    amplitude picks up the propagation phase across the region,
    t -> t e^{-ikw}, and the reflected amplitude the round trip to the left
    face, r -> r e^{2ika}.  Moduli are untouched.
    """
    if amp.convention == ORIGIN_REFERENCED:
        raise ValidationError("amplitudes are already origin-referenced")
    _check_shift_args(k, a, w)
    return Amplitudes(
        t=amp.t * cmath.exp(-1j * k * w),
        r=amp.r * cmath.exp(2j * k * a),
        convention=ORIGIN_REFERENCED,
    )


# ---------------------------------------------------------------------------
# S-matrix and Smith lifetime matrix


@dataclass(frozen=True)
class SMatrix:
    """2x2 unitary scattering matrix ((r, t), (t, r_bar)) for identical leads.

    ``r_bar`` is the reflection amplitude for incidence from the right; for
    a spatially asymmetric stack it differs from r in phase (never in
    modulus, since transmission is reciprocal).
    """

    r: complex
    t: complex
    r_bar: complex

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.r, self.t], [self.t, self.r_bar]], dtype=complex)

    @property
    def unitarity_defect(self) -> float:
        s = self.matrix
        return float(np.abs(s.conj().T @ s - np.eye(2)).max())


def s_matrix(amp: Amplitudes) -> SMatrix:
    """S-matrix from origin-referenced amplitudes.

    The right-incidence reflection follows from unitarity and reciprocity:
    r_bar = -conj(r) t / conj(t).  Cell-referenced input is rejected
    because its phases would put the stack in the wrong place.
    """
    if amp.convention != ORIGIN_REFERENCED:
        raise ValidationError(
            "S-matrix entries need origin-referenced phases; apply shift_convention first"
        )
    if amp.t == 0:
        raise NumericError("transmission amplitude underflowed to zero; cannot form S")
    r_bar = -amp.r.conjugate() * amp.t / amp.t.conjugate()
    return SMatrix(r=amp.r, t=amp.t, r_bar=r_bar)


def _origin_amplitudes(
    stack: StackSpec, E: float, consts: PhysConstants, amp: Amplitudes | None = None
) -> tuple[Amplitudes, float, float]:
    """Origin-referenced amplitudes plus lead wavenumber and velocity.

    ``amp`` passes the cell-referenced amplitudes at E when they are known.
    """
    if amp is None:
        amp = amplitudes(stack_matrix(E, stack, consts))
    k = math.sqrt(
        (E - stack.outside.potential) * stack.outside.mass_ratio / consts.hbar2_over_2m0
    )
    v = consts.velocity(k, stack.outside.mass_ratio)
    w = stack.width
    return shift_convention(amp, k, -0.5 * w, w), k, v


def _origin_derivatives(
    stack: StackSpec, E: float, consts: PhysConstants
) -> tuple[Amplitudes, complex, complex, float, float]:
    """``_origin_amplitudes`` and the energy derivatives dt/dE and dr/dE.

    The cell-referenced amplitudes and their exact derivatives come from one
    stack matrix at a jet energy; its value parts are the amplitudes, by the
    same operations as a plain evaluation.  With the stack centred on the
    origin both shifts are e^{-ikw}, whose phase moves with
    dk/dE = k / (2 (E - V_out)).
    """
    jet = amplitudes(stack_matrix(energy_jet(E), stack, consts))
    amp, k, v = _origin_amplitudes(stack, E, consts, Amplitudes(jet.t.v, jet.r.v))
    shift = cmath.exp(-1j * k * stack.width)
    dk_w = 0.5 * k * stack.width / (E - stack.outside.potential)
    dt = jet.t.d1 * shift - 1j * dk_w * amp.t
    dr = jet.r.d1 * shift - 1j * dk_w * amp.r
    return amp, dt, dr, k, v


@dataclass(frozen=True)
class SmithMatrix:
    """Lifetime matrix Q = -i hbar S^dagger dS/dE, in fs.

    Q is Hermitian for a unitary S, so the diagonal entries are real delay
    times (tau11 for left incidence, tau22 for right) and the channel
    coupling is carried by the single complex off-diagonal tau12.
    """

    tau11: float
    tau22: float
    tau12: complex


def smith_matrix(
    stack: StackSpec,
    E: float,
    consts: PhysConstants = CONSTANTS,
) -> SmithMatrix:
    """Smith lifetime matrix of a stack at energy E.

    dS/dE is taken entrywise and exactly, from dt/dE and dr/dE of the stack
    matrix at a jet energy, with r_bar = -conj(r) t / conj(t) differentiated
    by the product and quotient rules.  This sidesteps phase unwrapping
    entirely: the entries of S are smooth complex functions of energy even
    where the reflection phase is undefined.  E must lie above the lead
    band bottom.  For a mirror-symmetric stack tau11 = tau22 and tau12 is
    real up to roundoff; asymmetric stacks go through the same algebra but
    are outside the validated regime, so they are flagged with a warning.
    """
    if not _layers_mirror_equal(stack.segments()):
        warnings.warn(
            "Smith matrix for a spatially asymmetric stack: the general formula "
            "is used but this regime has no independent cross-check here",
            stacklevel=2,
        )
    amp, dt, dr, _, _ = _origin_derivatives(stack, E, consts)
    s = s_matrix(amp)
    phase = amp.t / amp.t.conjugate()
    d_phase = (dt - phase * dt.conjugate()) / amp.t.conjugate()
    dr_bar = -(dr.conjugate() * phase + amp.r.conjugate() * d_phase)
    ds = np.array([[dr, dt], [dt, dr_bar]])
    q = -1j * consts.hbar * (s.matrix.conj().T @ ds)
    defect = float(np.abs(q - q.conj().T).max())
    scale = max(1.0, float(np.abs(q).max()))
    if defect > 1e-3 * scale:
        raise NumericError(
            f"lifetime matrix is not Hermitian (defect {defect:.3e} fs) at E = {E} meV"
        )
    q = 0.5 * (q + q.conj().T)
    return SmithMatrix(tau11=q[0, 0].real, tau22=q[1, 1].real, tau12=q[0, 1])


# ---------------------------------------------------------------------------
# interior wavefunction


class _WaveField:
    """Flux-normalized stationary state for a unit wave incident from the left.

    Built once per (stack, E).  ``u`` evaluates it on a position array with
    one partial propagation per layer that holds points, each from the
    layer's left interface.
    """

    def __init__(self, stack: StackSpec, E: float, consts: PhysConstants = CONSTANTS):
        self.E = E
        self.consts = consts
        self.amp = amplitudes(stack_matrix(E, stack, consts))
        self.mass_out = stack.outside.mass_ratio
        self.k = math.sqrt(
            (E - stack.outside.potential) * self.mass_out / consts.hbar2_over_2m0
        )
        self.v = consts.velocity(self.k, self.mass_out)
        self.layers = stack.segments()
        widths = np.array([layer.width for layer in self.layers])
        edges = -0.5 * stack.width + np.concatenate([[0.0], np.cumsum(widths)])
        self.edges = edges  # len(layers) + 1 interface positions
        self.a = float(edges[0])
        self.b = float(edges[-1])
        # u = (psi, psi'/m*) at the right face, then backward through every
        # layer; det-1 inverses are written out to avoid a solve per layer.
        norm = 1.0 / math.sqrt(self.v)
        t = self.amp.t * norm
        u = np.array([t, 1j * self.k * t / self.mass_out])
        us = [u]
        for layer in reversed(self.layers):
            p = np.array(_layer_entries(E, layer, layer.width, consts), dtype=float)
            u = np.array(
                [p[1, 1] * u[0] - p[0, 1] * u[1], -p[1, 0] * u[0] + p[0, 0] * u[1]]
            )
            us.append(u)
        us.reverse()
        self.us = us  # u at every interface, left to right

    def u(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(psi, psi'/m*) at every position of the array x, any region."""
        x = np.asarray(x, dtype=float)
        psi = np.empty(x.shape, dtype=complex)
        slope = np.empty(x.shape, dtype=complex)
        norm = 1.0 / math.sqrt(self.v)
        ik = 1j * self.k
        left, right = x <= self.a, x >= self.b
        fwd = np.exp(ik * (x[left] - self.a))
        bwd = self.amp.r / fwd
        psi[left] = (fwd + bwd) * norm
        slope[left] = ik * (fwd - bwd) * norm / self.mass_out
        psi[right] = self.amp.t * np.exp(ik * (x[right] - self.b)) * norm
        slope[right] = ik * psi[right] / self.mass_out
        layer = np.searchsorted(self.edges, x, side="right") - 1
        layer[left | right] = -1
        for j in np.unique(layer[layer >= 0]):
            at = layer == j
            dx = x[at] - self.edges[j]
            (p11, p12), (p21, p22) = _layer_entries(
                np.full(dx.shape, self.E), self.layers[j], dx, self.consts
            )
            u0, u1 = self.us[j]
            psi[at] = p11 * u0 + p12 * u1
            slope[at] = p21 * u0 + p22 * u1
        return psi, slope


def interior_wavefunction(
    stack: StackSpec,
    E: float,
    x_grid: np.ndarray,
    consts: PhysConstants = CONSTANTS,
) -> np.ndarray:
    """psi(x) on x_grid for a flux-normalized wave incident from the left.

    The stack occupies [-W/2, +W/2]; the grid may extend into either lead.
    Densities come out in units of inverse velocity, so a free stack gives
    |psi|^2 = 1/v everywhere and resonant states show up as interior
    density exceeding the lead value.
    """
    return _WaveField(stack, E, consts).u(x_grid)[0]


def probability_current(
    stack: StackSpec,
    E: float,
    x_grid: np.ndarray,
    consts: PhysConstants = CONSTANTS,
) -> np.ndarray:
    """Probability current at each grid point, unit incident flux.

    Stationarity makes this x-independent and equal to the transmission
    probability; deviations measure reconstruction error.
    """
    field = _WaveField(stack, E, consts)
    psi, slope = field.u(x_grid)
    # incident current of e^{ikx}/sqrt(v): k/(m v) in these units
    return (psi.conjugate() * slope).imag * field.v * field.mass_out / field.k


# ---------------------------------------------------------------------------
# dwell time


@dataclass(frozen=True)
class DwellResult:
    """Dwell time of the stationary state over a window [x_left, x_right].

    ``tau_dwell_delay`` is the smooth phase-derivative part
    hbar (|t|^2 eta' + |r|^2 delta') with origin-referenced phases -- the
    piece that does not depend on where the window ends sit, equal to the
    Smith tau11.  ``oscillatory_term`` tracks the standing-wave fringe at
    the left window edge and ``free_passage`` the classical crossing times.
    The three sum to the density integral over the window, which
    ``tau_numeric`` re-derives by adaptive quadrature of |psi|^2.
    All times in fs.
    """

    tau_dwell_delay: float
    oscillatory_term: float
    free_passage: float
    uniform_passage: float
    tau_numeric: float
    x_left: float
    x_right: float

    @property
    def dwell_time(self) -> float:
        """Closed-form integral of |psi|^2 over the window."""
        return self.tau_dwell_delay + self.oscillatory_term + self.free_passage

    @property
    def delay(self) -> float:
        """Excess of the dwell time over uniform free passage of the window."""
        return self.dwell_time - self.uniform_passage


def dwell_time(
    stack: StackSpec,
    E: float,
    x_left: float | None = None,
    x_right: float | None = None,
    consts: PhysConstants = CONSTANTS,
) -> DwellResult:
    """Dwell time of the left-incident state over [x_left, x_right].

    The window must strictly enclose the stack ([-W/2, +W/2]); the defaults
    put each end one core-cell width outside the corresponding face.  The
    phase derivatives are taken as Im(conj(t) t') and Im(conj(r) r'), which
    stay finite at perfect transmission where the reflection phase itself
    is undefined; t' and r' are exact (see ``smith_matrix``).  E must be
    above the lead band bottom.

    The quadrature cross-check integrates the reconstructed density with
    interface positions as forced panel boundaries and is returned in
    ``tau_numeric``; a gross mismatch with the closed form raises, finer
    comparisons are left to the caller.
    """
    half_w = 0.5 * stack.width
    if x_left is None:
        x_left = -half_w - stack.core.width
    if x_right is None:
        x_right = half_w + stack.core.width
    if not (x_left < -half_w and x_right > half_w):
        raise ValidationError(
            f"window [{x_left}, {x_right}] must strictly enclose the stack "
            f"[{-half_w}, {half_w}]"
        )

    amp, dt, dr, k, v = _origin_derivatives(stack, E, consts)
    smooth = consts.hbar * ((amp.t.conjugate() * dt).imag + (amp.r.conjugate() * dr).imag)

    e_kin = E - stack.outside.potential
    r_abs = abs(amp.r)
    if r_abs == 0.0:
        oscillatory = 0.0
    else:
        delta = cmath.phase(amp.r)
        oscillatory = -(consts.hbar * r_abs / (2.0 * e_kin)) * math.sin(
            2.0 * k * x_left - delta
        )

    T, R = amp.T, amp.R
    free_passage = (x_right - x_left) * T / v - 2.0 * x_left * R / v
    uniform = (x_right - x_left) / v

    field = _WaveField(stack, E, consts)
    interior = [x for x in field.edges if x_left < x < x_right]
    numeric = adaptive_simpson(
        lambda x: np.abs(field.u(x)[0]) ** 2, x_left, x_right, tol=1e-6, breakpoints=interior
    ).real

    closed = smooth + oscillatory + free_passage
    if abs(numeric - closed) > max(1e-2 * abs(closed), 0.1):
        raise NumericError(
            f"dwell-time closed form ({closed:.6f} fs) and density integral "
            f"({numeric:.6f} fs) disagree at E = {E} meV"
        )
    return DwellResult(
        tau_dwell_delay=smooth,
        oscillatory_term=oscillatory,
        free_passage=free_passage,
        uniform_passage=uniform,
        tau_numeric=numeric,
        x_left=x_left,
        x_right=x_right,
    )
