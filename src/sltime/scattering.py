"""Stationary scattering observables of a finite stack.

Everything here works in a fixed coordinate frame with the stack centered
on the origin: the scattering region occupies [-W/2, +W/2] where W is the
total stack width, and the uniform leads extend to either side.  The
left-incident scattering state is psi = e^{ikx} + r e^{-ikx} (left lead),
t e^{ikx} (right lead), so t and r are *origin-referenced*: energy
derivatives of their phases are the ones with a time interpretation,
because moving the stack moves the arrival events.

One private helper, ``_origin_jet``, produces them.  It evaluates the
stack matrix once at a jet energy, for a scalar energy or a whole array,
and re-references the kernel's cell-edge amplitudes (``tmatrix.amplitudes``)
to the origin: with the stack centred, t and r both pick up e^{-ikw}.
Every observable below starts from that call, and none accepts amplitudes
from outside, so phases with the wrong reference cannot be handed in.  The
S-matrix ((r, t), (t, r_bar)) and the Smith lifetime matrix
Q = -i hbar S^dagger dS/dE are written out entry by entry, elementwise over
an energy array.

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
the quadrature runs one energy at a time and hands the density one
position array per refinement level.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .medium import CONSTANTS, PhysConstants, StackSpec, _layers_mirror_equal
from .numerics import adaptive_simpson
from .tmatrix import _layer_entries, amplitudes, energy_jet, stack_matrix

__all__ = [
    "SmithMatrix",
    "smith_matrix",
    "interior_wavefunction",
    "probability_current",
    "DwellResult",
    "dwell_time",
]


# ---------------------------------------------------------------------------
# origin-referenced amplitudes and the Smith lifetime matrix


def _origin_jet(stack: StackSpec, E, consts: PhysConstants) -> tuple:
    """Amplitudes of the stack at E (a scalar or an array) from one
    stack-matrix call at a jet energy.

    Returns (jet, t, r, dt, dr, k, v): the cell-referenced amplitude jets,
    whose value parts equal a plain evaluation; the origin-referenced t and
    r with their exact energy derivatives; the lead wavenumber and velocity.
    With the stack centred on the origin both shifts are e^{-ikw}, whose
    phase moves with dk/dE = k / (2 (E - V_out)).
    """
    jet = amplitudes(stack_matrix(energy_jet(E), stack, consts))
    e_kin = E - stack.outside.potential
    k = np.sqrt(e_kin * stack.outside.mass_ratio / consts.hbar2_over_2m0)
    v = consts.velocity(k, stack.outside.mass_ratio)
    shift = np.exp(-1j * k * stack.width)
    dk_w = 0.5 * k * stack.width / e_kin
    t, r = jet.t.v * shift, jet.r.v * shift
    dt = jet.t.d1 * shift - 1j * dk_w * t
    dr = jet.r.d1 * shift - 1j * dk_w * r
    return jet, t, r, dt, dr, k, v


@dataclass(frozen=True)
class SmithMatrix:
    """Lifetime matrix Q = -i hbar S^dagger dS/dE, in fs.

    Q is Hermitian for a unitary S, so the diagonal entries are real delay
    times (tau11 for left incidence, tau22 for right) and the channel
    coupling is carried by the single complex off-diagonal tau12.  Each
    field is a number, or an array shaped like the energies.
    """

    tau11: float | np.ndarray
    tau22: float | np.ndarray
    tau12: complex | np.ndarray


def smith_matrix(
    stack: StackSpec,
    E,
    consts: PhysConstants = CONSTANTS,
) -> SmithMatrix:
    """Smith lifetime matrix of a stack at energy E, a scalar or an array.

    S = ((r, t), (t, r_bar)) with the right-incidence reflection
    r_bar = -conj(r) t / conj(t) from unitarity and reciprocity.  dS/dE is
    taken entrywise and exactly, from dt/dE and dr/dE of the stack matrix
    at a jet energy, with r_bar differentiated by the product and quotient
    rules.  This sidesteps phase unwrapping entirely: the entries of S are
    smooth complex functions of energy even where the reflection phase is
    undefined.  E must lie above the lead band bottom.  Q must be Hermitian
    at every energy to 1e-3 of its largest entry there (or of 1 fs).  For a
    mirror-symmetric stack tau11 = tau22 and tau12 is real up to roundoff;
    asymmetric stacks go through the same algebra but are outside the
    validated regime, so they are flagged with a warning.
    """
    if not _layers_mirror_equal(stack.segments()):
        warnings.warn(
            "Smith matrix for a spatially asymmetric stack: the general formula "
            "is used but this regime has no independent cross-check here",
            stacklevel=2,
        )
    _, t, r, dt, dr, _, _ = _origin_jet(stack, E, consts)
    if np.any(t == 0):
        i = np.flatnonzero(t == 0)[0]
        raise NumericError(f"transmission amplitude underflowed to zero at "
                           f"E = {np.ravel(E)[i]} meV; cannot form S")
    t_c, r_c = t.conjugate(), r.conjugate()
    phase = t / t_c
    r_bar = -r_c * phase
    dr_bar = -(dr.conjugate() * phase + r_c * (dt - phase * dt.conjugate()) / t_c)
    rb_c = r_bar.conjugate()
    h = -1j * consts.hbar
    q11 = h * (r_c * dr + t_c * dt)
    q12 = h * (r_c * dt + t_c * dr_bar)
    q21 = h * (t_c * dr + rb_c * dt)
    q22 = h * (t_c * dt + rb_c * dr_bar)
    defect = np.maximum.reduce([2.0 * np.abs(q11.imag), 2.0 * np.abs(q22.imag),
                                np.abs(q12 - q21.conjugate())])
    scale = np.maximum.reduce([np.ones(np.shape(E)), np.abs(q11), np.abs(q12),
                               np.abs(q21), np.abs(q22)])
    failed = defect > 1e-3 * scale
    if failed.any():
        i = np.flatnonzero(failed)[0]
        raise NumericError(f"lifetime matrix is not Hermitian (defect "
                           f"{np.ravel(defect)[i]:.3e} fs) at E = {np.ravel(E)[i]} meV")
    tau12 = 0.5 * (q12 + q21.conjugate())
    if np.ndim(E) == 0:
        return SmithMatrix(tau11=float(q11.real), tau22=float(q22.real), tau12=complex(tau12))
    return SmithMatrix(tau11=q11.real, tau22=q22.real, tau12=tau12)


# ---------------------------------------------------------------------------
# interior wavefunction


class _WaveField:
    """Flux-normalized stationary state for a unit wave incident from the left.

    Built once per (stack, E) from the cell-referenced amplitudes t, r and
    the lead wavenumber k and velocity v at E.  ``u`` evaluates it on a
    position array with one partial propagation per layer that holds
    points, each from the layer's left interface.
    """

    def __init__(self, stack: StackSpec, E: float, t: complex, r: complex, k: float,
                 v: float, consts: PhysConstants = CONSTANTS):
        self.E = E
        self.consts = consts
        self.t, self.r, self.k, self.v = t, r, k, v
        self.mass_out = stack.outside.mass_ratio
        self.layers = stack.segments()
        widths = np.array([layer.width for layer in self.layers])
        edges = -0.5 * stack.width + np.concatenate([[0.0], np.cumsum(widths)])
        self.edges = edges  # len(layers) + 1 interface positions
        self.a = float(edges[0])
        self.b = float(edges[-1])
        # u = (psi, psi'/m*) at the right face, then backward through every
        # layer; det-1 inverses are written out to avoid a solve per layer.
        t = t * (1.0 / math.sqrt(v))
        u = np.array([t, 1j * k * t / self.mass_out])
        us = [u]
        for layer in reversed(self.layers):
            p = np.array(_layer_entries(E, layer, layer.width, consts), dtype=float)
            u = np.array(
                [p[1, 1] * u[0] - p[0, 1] * u[1], -p[1, 0] * u[0] + p[0, 0] * u[1]]
            )
            us.append(u)
        us.reverse()
        self.us = us  # u at every interface, left to right

    @classmethod
    def at(cls, stack: StackSpec, E: float, consts: PhysConstants) -> "_WaveField":
        """The field at one energy, from its own ``_origin_jet`` call."""
        jet,_, _, _, _, k, v = _origin_jet(stack, E, consts)
        return cls(stack, E, jet.t.v, jet.r.v, k, v, consts)

    def u(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(psi, psi'/m*) at every position of the array x, any region."""
        x = np.asarray(x, dtype=float)
        psi = np.empty(x.shape, dtype=complex)
        slope = np.empty(x.shape, dtype=complex)
        norm = 1.0 / math.sqrt(self.v)
        ik = 1j * self.k
        left, right = x <= self.a, x >= self.b
        fwd = np.exp(ik * (x[left] - self.a))
        bwd = self.r / fwd
        psi[left] = (fwd + bwd) * norm
        slope[left] = ik * (fwd - bwd) * norm / self.mass_out
        psi[right] = self.t * np.exp(ik * (x[right] - self.b)) * norm
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
    return _WaveField.at(stack, E, consts).u(x_grid)[0]


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
    field = _WaveField.at(stack, E, consts)
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
    All times in fs; each is a number, or an array shaped like the energies.
    """

    tau_dwell_delay: float | np.ndarray
    oscillatory_term: float | np.ndarray
    free_passage: float | np.ndarray
    uniform_passage: float | np.ndarray
    tau_numeric: float | np.ndarray
    x_left: float
    x_right: float

    @property
    def dwell_time(self) -> float | np.ndarray:
        """Closed-form integral of |psi|^2 over the window."""
        return self.tau_dwell_delay + self.oscillatory_term + self.free_passage

    @property
    def delay(self) -> float | np.ndarray:
        """Excess of the dwell time over uniform free passage of the window."""
        return self.dwell_time - self.uniform_passage


def dwell_time(
    stack: StackSpec,
    E,
    x_left: float | None = None,
    x_right: float | None = None,
    consts: PhysConstants = CONSTANTS,
) -> DwellResult:
    """Dwell time of the left-incident state over [x_left, x_right].

    E is a scalar or an array; an array gives fields shaped like it.  The
    window must strictly enclose the stack ([-W/2, +W/2]); the defaults
    put each end one core-cell width outside the corresponding face.  The
    phase derivatives are taken as Im(conj(t) t') and Im(conj(r) r'), which
    stay finite at perfect transmission where the reflection phase itself
    is undefined; t' and r' are exact (see ``smith_matrix``).  E must be
    above the lead band bottom.

    The quadrature cross-check integrates the reconstructed density with
    interface positions as forced panel boundaries, one energy at a time,
    and is returned in ``tau_numeric``; a gross mismatch with the closed
    form at any energy raises, finer comparisons are left to the caller.
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

    jet, t, r, dt, dr, k, v = _origin_jet(stack, E, consts)
    smooth = consts.hbar * ((t.conjugate() * dt).imag + (r.conjugate() * dr).imag)

    r_abs = np.abs(r)
    fringe = -(consts.hbar * r_abs / (2.0 * (E - stack.outside.potential))) * np.sin(
        2.0 * k * x_left - np.angle(r)
    )
    oscillatory = np.where(r_abs == 0.0, 0.0, fringe)

    free_passage = (x_right - x_left) * np.abs(t) ** 2 / v - 2.0 * x_left * r_abs**2 / v
    uniform = (x_right - x_left) / v

    closed = smooth + oscillatory + free_passage
    numeric = np.empty(np.shape(E))
    lead = zip(*(np.ravel(a) for a in (E, jet.t.v, jet.r.v, k, v, closed)))
    for i, (e, t_cell, r_cell, k_e, v_e, closed_e) in enumerate(lead):
        field = _WaveField(stack, e, t_cell, r_cell, k_e, v_e, consts)
        interior = [x for x in field.edges if x_left < x < x_right]
        numeric.flat[i] = adaptive_simpson(
            lambda x: np.abs(field.u(x)[0]) ** 2, x_left, x_right, tol=1e-6,
            breakpoints=interior,
        ).real
        if abs(numeric.flat[i] - closed_e) > max(1e-2 * abs(closed_e), 0.1):
            raise NumericError(
                f"dwell-time closed form ({closed_e:.6f} fs) and density integral "
                f"({numeric.flat[i]:.6f} fs) disagree at E = {e} meV"
            )
    parts = (smooth, oscillatory, free_passage, uniform, numeric)
    if np.ndim(E) == 0:
        parts = tuple(float(p) for p in parts)
    return DwellResult(*parts, x_left=x_left, x_right=x_right)
