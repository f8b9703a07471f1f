"""Antireflection end cells (ARCs) for a periodic core.

A periodic array transmits perfectly only at the N - 1 discrete resonances;
between them the mismatch between the Bloch wave inside and the plane wave
outside reflects flux back.  A quarter-wave matching cell on each end --
one that at the matching energy advances the phase by pi/2 and carries half
the core's hyperbolic angle mu -- cancels that mismatch exactly at one
energy and approximately across the band, the same trick as a single-layer
optical coating with refractive index sqrt(n).  The cancellation is an
identity of the angle parameterization: conjugating the core's N-cell
rotation by a quarter-turn boost of half strength removes the hyperbolic
factor from the total matrix, provided the two cells share the boost
direction chi.  ``tmatrix.stack_matrix`` multiplies out a dressed stack.

``design_rule_of_thumb`` scales the core's widths and potentials and meets
the two matching conditions at the band-center energy as two nested
bracketed root solves; a design it cannot bracket, or whose residual
exceeds 1e-2, is reported as no viable design rather than returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .kard import Band, PotentialCell, _require_in_band, decompose, energy_at_phase
from .medium import CONSTANTS, CellSpec, EnergyGrid, Layer, StackSpec
from .numerics import bracket_roots
from .tmatrix import TransferMatrix, amplitudes, cell_matrix, energy_jet, stack_matrix

__all__ = [
    "ArcDesign",
    "compose_with_arc",
    "band_average_transmission",
    "stack_phase_time",
    "design_rule_of_thumb",
]

_QUARTER = 0.5 * math.pi


@dataclass(frozen=True)
class ArcDesign:
    """A matching cell and the angles it actually achieves.

    ``target_energy`` is where the two matching conditions were imposed
    (the core's band-center energy, where its phase crosses pi/2).
    """

    arc_cell: CellSpec
    target_energy: float
    achieved_mu_a: float
    achieved_phi_a: float

    def __post_init__(self) -> None:
        if not (abs(self.achieved_phi_a - _QUARTER) <= 1e-3):
            raise ValidationError(
                f"quarter-wave condition missed: phi_A = {self.achieved_phi_a:.6f} rad "
                f"is more than 1e-3 from pi/2"
            )


def compose_with_arc(stack: StackSpec, E: float | np.ndarray) -> TransferMatrix:
    """``tmatrix.stack_matrix`` under its older name, which perfbench's tracer wraps."""
    return stack_matrix(E, stack)


def band_average_transmission(stack: StackSpec, band: Band, grid: EnergyGrid) -> float:
    """Mean transmission probability over a uniform grid spanning the band.

    The grid must lie inside ``band`` and be at least as fine as 2000
    samples, since coarse grids visibly bias the average when the band
    contains resonances narrower than the spacing.
    """
    if grid.count < 2000:
        raise ValidationError(f"band average needs >= 2000 samples, got {grid.count}")
    _require_in_band(band, grid.samples)
    return float(np.mean(amplitudes(stack_matrix(grid.samples, stack)).T))


def stack_phase_time(stack: StackSpec, E: float | np.ndarray):
    """Stationary-phase crossing time hbar d(arg t)/dE of the whole stack, fs.

    Works for any stack (end cells included), unlike the single-band
    formulas in ``timing`` which exploit the periodicity of the bare core.
    dt/dE is exact, from the stack matrix at a jet energy.  The phase is
    cell-referenced, so this is the crossing time, not the delay over free
    propagation.
    """
    t = amplitudes(stack_matrix(energy_jet(E), stack)).t
    return CONSTANTS.hbar * (t.v.conjugate() * t.d1).imag / abs(t.v) ** 2


def _scaled_cell(core: CellSpec, width_scale: float, barrier_scale: float) -> CellSpec:
    layers = tuple(
        Layer(
            width=layer.width * width_scale,
            potential=layer.potential * barrier_scale,
            mass_ratio=layer.mass_ratio,
        )
        for layer in core.layers
    )
    return CellSpec(layers=layers, symmetric=core.symmetric)


def _highest_rise(f, samples: np.ndarray, what: str) -> float:
    """Largest root at which f rises, below samples[0] where f > 0: the first
    lower sample where f < 0 closes the bracket that ``bracket_roots``
    narrows, from the two values already in hand."""
    f_above = f(samples[0])
    if not f_above > 0.0:
        raise NumericError(f"no viable design: {what} is not positive at {samples[0]:g}")
    for above, below in zip(samples, samples[1:]):
        f_below = f(below)
        if f_below < 0.0:
            return float(bracket_roots(lambda x: f(float(x)), below, above,
                                       f_below, f_above, 1e-13))
        f_above = f_below
    raise NumericError(f"no viable design: {what} has no sign change down to {samples[-1]:g}")


def design_rule_of_thumb(core: CellSpec, outside: Layer, band: Band) -> ArcDesign:
    """Quarter-wave/half-mu matching cell for ``core``, from a scaled family.

    The family is the core with all widths scaled by s_w and all potentials
    by s_V.  At the matching energy e_c, where the core's phase crosses
    pi/2, the two conditions are two nested sign changes, each found by
    stepping down 0.05 at a time and narrowing the first bracket with
    ``numerics.bracket_roots``:

    * phi_A = pi/2 is Tr M_A = 0.  s_V(s_w) is the largest s_V in (0, 2] at
      which Tr M_A rises through zero.  Only the largest is sure to be the
      core's branch: on a narrow-band core Tr M_A also falls through zero
      just above s_V = 0, so [0, 2] brackets no sign change.
    * mu_A(s_w, s_V(s_w)) - mu/2 is +mu/2 at s_w = 1, the core itself; s_w
      is its largest rising root below 1.

    No sign change at either level, a forbidden cell or a residual above
    1e-2 raises NumericError.  chi is not matched: for cells of the core's
    own family it comes out aligned, and the end-to-end transmission checks
    would catch it if it did not.
    """
    model = PotentialCell(core, outside)
    e_c = energy_at_phase(model, band, _QUARTER)
    mu_target = 0.5 * decompose(model.matrix(e_c)).mu
    matrix = lambda s_w, s_V: cell_matrix(e_c, _scaled_cell(core, s_w, s_V), outside)

    def barrier_scale(s_w: float) -> float:
        return _highest_rise(lambda s_V: matrix(s_w, s_V).m11.real,
                             np.linspace(2.0, 0.0, 41), "Tr M_A(s_V)")

    s_w = _highest_rise(lambda s_w: decompose(matrix(s_w, barrier_scale(s_w))).mu - mu_target,
                        np.linspace(1.0, 0.05, 20), "mu_A(s_w) - mu/2")
    s_V = barrier_scale(s_w)
    params = decompose(matrix(s_w, s_V))
    residual = math.hypot(params.phi - _QUARTER, params.mu - mu_target)
    if not (params.band == "allowed" and residual <= 1e-2):
        raise NumericError(
            f"no viable design: residual {residual:.3e} at scales "
            f"(width {s_w:.4f}, barrier {s_V:.4f})"
        )
    return ArcDesign(
        arc_cell=_scaled_cell(core, s_w, s_V),
        target_energy=e_c,
        achieved_mu_a=params.mu,
        achieved_phi_a=params.phi,
    )
