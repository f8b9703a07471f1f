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
an energy array, for any stack, mirror-symmetric or not.

The interior wavefunction (``_WaveField``), whose density the dwell time's
cross-check integrates, is reconstructed by back-propagating the
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
flux-normalized stationary state, which ``dwell_time`` also evaluates
directly from the reconstructed state as an independent check.  Inside a
layer psi is c(x) psi_0 + m* s(x) (psi'/m*)_0 with c = cos(kx) and
s = sin(kx)/k, so the integral of |psi|^2 over each layer, and over each
lead piece taken as a layer of lead material, is a closed form in the
layer's (psi, psi'/m*) at one face; the backward pass already holds those
for every energy at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError, require
from .medium import CONSTANTS, StackSpec
from .tmatrix import (
    _cos_and_sinc, _layer_entries, _sinc_slopes, amplitudes, energy_jet, stack_matrix,
)

__all__ = [
    "SmithMatrix",
    "smith_matrix",
    "DwellResult",
    "dwell_time",
]

# ---------------------------------------------------------------------------
# origin-referenced amplitudes and the Smith lifetime matrix


def _origin_jet(stack: StackSpec, E) -> tuple:
    """Amplitudes of the stack at E (a scalar or an array) from one
    stack-matrix call at a jet energy.

    Returns (jet, t, r, dt, dr, k, v): the cell-referenced amplitude jets,
    whose value parts equal a plain evaluation; the origin-referenced t and
    r with their exact energy derivatives; the lead wavenumber and velocity.
    With the stack centred on the origin both shifts are e^{-ikw}, whose
    phase moves with dk/dE = k / (2 (E - V_out)).
    """
    jet = amplitudes(stack_matrix(energy_jet(E), stack))
    e_kin = E - stack.outside.potential
    k = np.sqrt(e_kin * stack.outside.mass_ratio / CONSTANTS.hbar2_over_2m0)
    v = CONSTANTS.velocity(k, stack.outside.mass_ratio)
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


def smith_matrix(stack: StackSpec, E) -> SmithMatrix:
    """Smith lifetime matrix of a stack at energy E, a scalar or an array.

    S = ((r, t), (t, r_bar)) with the right-incidence reflection
    r_bar = -conj(r) t / conj(t) from unitarity and reciprocity.  dS/dE is
    taken entrywise and exactly, from dt/dE and dr/dE of the stack matrix
    at a jet energy, with r_bar differentiated by the product and quotient
    rules.  This sidesteps phase unwrapping entirely: the entries of S are
    smooth complex functions of energy even where the reflection phase is
    undefined.  E must lie above the lead band bottom.  Q must be Hermitian
    at every energy to 1e-3 of its largest entry there (or of 1 fs); a NaN
    defect fails, and the NumericError names the first failing energy.  For a
    mirror-symmetric stack tau11 = tau22 and tau12 is real up to roundoff;
    an asymmetric stack's tau22 is its mirror image's tau11.
    """
    _, t, r, dt, dr, _, _ = _origin_jet(stack, E)
    require(t != 0, NumericError,
            "transmission amplitude underflowed to zero at E = {E} meV; cannot form S", E=E)
    t_c, r_c = t.conjugate(), r.conjugate()
    phase = t / t_c
    r_bar = -r_c * phase
    dr_bar = -(dr.conjugate() * phase + r_c * (dt - phase * dt.conjugate()) / t_c)
    rb_c = r_bar.conjugate()
    h = -1j * CONSTANTS.hbar
    q11 = h * (r_c * dr + t_c * dt)
    q12 = h * (r_c * dt + t_c * dr_bar)
    q21 = h * (t_c * dr + rb_c * dt)
    q22 = h * (t_c * dt + rb_c * dr_bar)
    defect = np.maximum.reduce([2.0 * np.abs(q11.imag), 2.0 * np.abs(q22.imag),
                                np.abs(q12 - q21.conjugate())])
    scale = np.maximum.reduce([np.ones(np.shape(E)), np.abs(q11), np.abs(q12),
                               np.abs(q21), np.abs(q22)])
    require(defect <= 1e-3 * scale, NumericError,
            "lifetime matrix is not Hermitian (defect {defect:.3e} fs) at E = {E} meV",
            defect=defect, E=E)
    tau12 = 0.5 * (q12 + q21.conjugate())
    if np.ndim(E) == 0:
        return SmithMatrix(tau11=float(q11.real), tau22=float(q22.real), tau12=complex(tau12))
    return SmithMatrix(tau11=q11.real, tau22=q22.real, tau12=tau12)


# ---------------------------------------------------------------------------
# interior wavefunction


class _WaveField:
    """Flux-normalized stationary states for a unit wave incident from the
    left, one for every energy of a 1-d array.

    Built once per (stack, energies) from the cell-referenced amplitudes
    t, r and the lead wavenumber k and velocity v, each an array over the
    energies: one backward pass through the interfaces, on arrays, gives
    (psi, psi'/m*) at every interface for every energy.  ``u`` evaluates a
    position array with one partial propagation per layer that holds
    points, each from the layer's left interface; ``density_integral``
    integrates |psi|^2 over a window exactly, layer by layer.
    """

    def __init__(self, stack: StackSpec, E: np.ndarray, t: np.ndarray, r: np.ndarray,
                 k: np.ndarray, v: np.ndarray):
        self.E = E
        self.t, self.r, self.k, self.v = t, r, k, v
        self.norm = 1.0 / np.sqrt(v)
        self.outside = stack.outside
        self.mass_out = stack.outside.mass_ratio
        self.layers = stack.segments()
        self.edges = stack.interfaces()
        self.a = float(self.edges[0])
        self.b = float(self.edges[-1])
        # u = (psi, psi'/m*) at the right face, then backward through every
        # layer; det-1 inverses are written out to avoid a solve per layer.
        t = t * self.norm
        u = np.array([t, 1j * k * t / self.mass_out])
        us = [u]
        for layer in reversed(self.layers):
            (p11, p12), (p21, p22) = _layer_entries(E, layer, layer.width)
            u = np.array([p22 * u[0] - p12 * u[1], -p21 * u[0] + p11 * u[1]])
            us.append(u)
        us.reverse()
        self.us = us  # u at every interface, left to right, shape (2, energies)

    @classmethod
    def at(cls, stack: StackSpec, E) -> "_WaveField":
        """The fields at the energies of E, a scalar or an array, flattened,
        from one ``_origin_jet`` call."""
        E = np.ravel(np.asarray(E, dtype=float))
        jet, _, _, _, _, k, v = _origin_jet(stack, E)
        return cls(stack, E, jet.t.v, jet.r.v, k, v)

    def u(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(psi, psi'/m*) at every position of the array x, any region, for
        a field of one energy."""
        x = np.asarray(x, dtype=float)
        psi = np.empty(x.shape, dtype=complex)
        slope = np.empty(x.shape, dtype=complex)
        left, right = x <= self.a, x >= self.b
        ik = 1j * self.k
        fwd = np.exp(ik * (x[left] - self.a))
        bwd = self.r / fwd
        psi[left] = (fwd + bwd) * self.norm
        slope[left] = ik * (fwd - bwd) * self.norm / self.mass_out
        psi[right] = self.t * np.exp(ik * (x[right] - self.b)) * self.norm
        slope[right] = ik * psi[right] / self.mass_out
        layer = np.searchsorted(self.edges, x, side="right") - 1
        layer[left | right] = -1
        for j in np.unique(layer[layer >= 0]):
            at = layer == j
            (p11, p12), (p21, p22) = _layer_entries(self.E, self.layers[j], x[at] - self.edges[j])
            u0, u1 = self.us[j]
            psi[at] = p11 * u0 + p12 * u1
            slope[at] = p21 * u0 + p22 * u1
        return psi, slope

    def density_integral(self, x_left: float, x_right: float) -> np.ndarray:
        """Integral of |psi|^2 over [x_left, x_right] (around the stack) for
        every energy, exact up to rounding.

        With psi = c u_0 + m s u_1 across a width L of one material, from
        its face state u = (psi, psi'/m*), and C, S = cos(kL), sin(kL)/k
        there, the integral is |u_0|^2 (L + C S)/2 + m Re(u_0 conj u_1) S^2
        + m^2 |u_1|^2 (L S^2/2 + C dS/dk^2), valid for k^2 of either sign
        (``tmatrix._sinc_slopes`` carries dS/dk^2 through k^2 L^2 -> 0).
        Each layer is integrated from its left face; the lead pieces are
        lead material, [x_left, a] integrated backwards from the left face,
        which flips the sign of the cross term, and [b, x_right] forwards
        from the right face.  These Gram forms lose about eps e^{2 kappa L}
        of a barrier's integral to rounding (1e-7 of it at kappa L = 10),
        since |psi|^2 there is small against the terms that cancel.
        """
        pieces = [(self.outside, self.a - x_left, self.us[0], -1.0),
                  *((layer, layer.width, u, 1.0) for layer, u in zip(self.layers, self.us)),
                  (self.outside, x_right - self.b, self.us[-1], 1.0)]
        total = 0.0
        for layer, width, (u0, u1), sign in pieces:
            m = layer.mass_ratio
            ksq = (self.E - layer.potential) * m / CONSTANTS.hbar2_over_2m0
            c, s = _cos_and_sinc(ksq, width)
            ds, _ = _sinc_slopes(ksq, width, c, s)
            total = total + (0.5 * (width + c * s) * np.abs(u0) ** 2
                             + sign * m * s * s * (u0 * u1.conjugate()).real
                             + m * m * (0.5 * width * s * s + c * ds) * np.abs(u1) ** 2)
        return total


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
    ``tau_numeric`` re-derives from the reconstructed state, integrating
    |psi|^2 exactly layer by layer.
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
) -> DwellResult:
    """Dwell time of the left-incident state over [x_left, x_right].

    E is a scalar or an array; an array gives fields shaped like it.  The
    window must strictly enclose the stack ([-W/2, +W/2]); the defaults
    put each end one core-cell width outside the corresponding face.  The
    phase derivatives are taken as Im(conj(t) t') and Im(conj(r) r'), which
    stay finite at perfect transmission where the reflection phase itself
    is undefined; t' and r' are exact (see ``smith_matrix``).  E must be
    above the lead band bottom.

    The cross-check integrates |psi|^2 of the reconstructed state over the
    window in closed form, layer by layer (``_WaveField.density_integral``),
    for every energy at once, and returns it in ``tau_numeric``; a scalar E
    goes through the same arrays with one energy and gets the same value as
    in an array.  A gross mismatch with the closed form (more than 1e-2 of it
    and 0.1 fs), or a NaN in either, raises at the first such energy; finer
    comparisons are left to the caller.
    """
    half_w = 0.5 * stack.width
    if x_left is None:
        x_left = -half_w - stack.core.width
    if x_right is None:
        x_right = half_w + stack.core.width
    if not (-np.inf < x_left < -half_w and half_w < x_right < np.inf):
        raise ValidationError(
            f"window [{x_left}, {x_right}] must be finite and strictly enclose the stack "
            f"[{-half_w}, {half_w}]"
        )

    e = np.ravel(np.asarray(E, dtype=float))
    jet, t, r, dt, dr, k, v = _origin_jet(stack, e)
    smooth = CONSTANTS.hbar * ((t.conjugate() * dt).imag + (r.conjugate() * dr).imag)

    r_abs = np.abs(r)
    fringe = -(CONSTANTS.hbar * r_abs / (2.0 * (e - stack.outside.potential))) * np.sin(
        2.0 * k * x_left - np.angle(r)
    )
    oscillatory = np.where(r_abs == 0.0, 0.0, fringe)

    free_passage = (x_right - x_left) * np.abs(t) ** 2 / v - 2.0 * x_left * r_abs**2 / v
    uniform = (x_right - x_left) / v

    closed = smooth + oscillatory + free_passage
    numeric = _WaveField(stack, e, jet.t.v, jet.r.v, k, v).density_integral(x_left, x_right)
    require(np.abs(numeric - closed) <= np.maximum(1e-2 * np.abs(closed), 0.1), NumericError,
            "dwell-time closed form ({closed:.6f} fs) and density integral "
            "({numeric:.6f} fs) disagree at E = {E} meV", closed=closed, numeric=numeric, E=e)
    parts = (smooth, oscillatory, free_passage, uniform, numeric)
    if np.ndim(E) == 0:
        parts = tuple(float(p[0]) for p in parts)
    else:
        parts = tuple(p.reshape(np.shape(E)) for p in parts)
    return DwellResult(*parts, x_left=x_left, x_right=x_right)
