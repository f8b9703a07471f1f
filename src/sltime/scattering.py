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
directly as an independent check (``_density_integral``).  One backward
pass from the right face, for every energy at once, steps (psi, psi'/m*)
across each layer with the same propagator the transfer matrix uses.
Inside a layer psi is c(x) psi_0 + m* s(x) (psi'/m*)_0 with c = cos(kx)
and s = sin(kx)/k, so the integral of |psi|^2 over each layer, and over
each lead piece taken as a layer of lead material, is a closed form in the
layer's (psi, psi'/m*) at one face.  Backward propagation through a
barrier grows the evanescent component, which is the numerically stable
direction (the forward problem would difference two growing exponentials).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError, require
from .medium import CONSTANTS, StackSpec
from .tmatrix import _cos_and_sinc, _sinc_slopes, amplitudes, energy_jet, stack_matrix

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
# density integral


def _density_integral(stack: StackSpec, E: np.ndarray, t: np.ndarray, k: np.ndarray,
                      v: np.ndarray, x_left: float, x_right: float) -> np.ndarray:
    """Integral of |psi|^2 over [x_left, x_right] (around the stack) for
    the flux-normalized state of a unit wave incident from the left, at
    every energy of the 1-d array E, exact up to rounding.

    t is the cell-referenced transmission amplitude and k, v the lead
    wavenumber and velocity, each an array over E.  One backward pass from
    the right face, where u = (psi, psi'/m*) = (t, i k t / m*) / sqrt(v),
    steps u across each layer with the inverse of its propagator
    ((C, m S), (-k^2 S / m, C)), C, S = cos(kL), sin(kL)/k, and integrates
    the layer from its left face.  With psi = c u_0 + m s u_1 across a
    width L of one material, the integral is |u_0|^2 (L + C S)/2
    + m Re(u_0 conj u_1) S^2 + m^2 |u_1|^2 (L S^2/2 + C dS/dk^2), valid for
    k^2 of either sign (``tmatrix._sinc_slopes`` carries dS/dk^2 through
    k^2 L^2 -> 0).  The lead pieces are lead material: [b, x_right]
    integrated forwards from the right face, and [x_left, a] backwards from
    the left face, which flips the sign of the cross term.  Each distinct
    layer's k^2, C, S and dS/dk^2 are evaluated once, and the pieces are
    summed left to right.  These Gram forms lose about eps e^{2 kappa L} of
    a barrier's integral to rounding (1e-7 of it at kappa L = 10), since
    |psi|^2 there is small against the terms that cancel.
    """
    lead = stack.outside
    edges = stack.interfaces()
    a, b = float(edges[0]), float(edges[-1])

    def material(layer, width):
        ksq = (E - layer.potential) * layer.mass_ratio / CONSTANTS.hbar2_over_2m0
        c, s = _cos_and_sinc(ksq, width)
        ds, _ = _sinc_slopes(ksq, width, c, s)
        return layer.mass_ratio, width, ksq, c, s, ds

    def piece(m, width, ksq, c, s, ds, u0, u1, sign=1.0):
        return (0.5 * (width + c * s) * np.abs(u0) ** 2
                + sign * m * s * s * (u0 * u1.conjugate()).real
                + m * m * (0.5 * width * s * s + c * ds) * np.abs(u1) ** 2)

    layers = stack.segments()
    inner = {layer: material(layer, layer.width) for layer in set(layers)}
    u0 = t * (1.0 / np.sqrt(v))
    u1 = 1j * k * u0 / lead.mass_ratio
    pieces = [piece(*material(lead, x_right - b), u0, u1)]
    for layer in reversed(layers):
        m, width, ksq, c, s, ds = inner[layer]
        u0, u1 = c * u0 - m * s * u1, ksq * s / m * u0 + c * u1
        pieces.append(piece(m, width, ksq, c, s, ds, u0, u1))
    pieces.append(piece(*material(lead, a - x_left), u0, u1, -1.0))
    return sum(reversed(pieces))


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
    ``tau_numeric`` re-derives from the stationary state, integrating
    |psi|^2 exactly layer by layer.
    All times in fs; each is a number, or an array shaped like the energies.
    """

    tau_dwell_delay: float | np.ndarray
    oscillatory_term: float | np.ndarray
    free_passage: float | np.ndarray
    tau_numeric: float | np.ndarray
    x_left: float
    x_right: float

    @property
    def dwell_time(self) -> float | np.ndarray:
        """Closed-form integral of |psi|^2 over the window."""
        return self.tau_dwell_delay + self.oscillatory_term + self.free_passage


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

    The cross-check integrates |psi|^2 of the stationary state over the
    window in closed form, layer by layer (``_density_integral``),
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

    closed = smooth + oscillatory + free_passage
    numeric = _density_integral(stack, e, jet.t.v, k, v, x_left, x_right)
    require(np.abs(numeric - closed) <= np.maximum(1e-2 * np.abs(closed), 0.1), NumericError,
            "dwell-time closed form ({closed:.6f} fs) and density integral "
            "({numeric:.6f} fs) disagree at E = {E} meV", closed=closed, numeric=numeric, E=e)
    parts = (smooth, oscillatory, free_passage, numeric)
    if np.ndim(E) == 0:
        parts = tuple(float(p[0]) for p in parts)
    else:
        parts = tuple(p.reshape(np.shape(E)) for p in parts)
    return DwellResult(*parts, x_left=x_left, x_right=x_right)
