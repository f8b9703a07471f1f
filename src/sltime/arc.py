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
direction chi.

``design_rule_of_thumb`` searches a two-parameter family made from the core
itself -- all layer widths scaled by one factor, all potentials by another
-- for the cell that best satisfies the two matching conditions at the
band-center energy.  That family always contains enough freedom to meet
two scalar conditions, so the search is expected to converge to residuals
near machine level; anything above 1e-2 is reported as no viable design
rather than returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .kard import Band, PotentialCell, decompose, energy_at_phase
from .medium import CONSTANTS, CellSpec, EnergyGrid, Layer, PhysConstants, StackSpec
from .tmatrix import TransferMatrix, amplitudes, cell_matrix, compose, energy_jet, stack_matrix

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
        if abs(self.achieved_phi_a - _QUARTER) > 1e-3:
            raise ValidationError(
                f"quarter-wave condition missed: phi_A = {self.achieved_phi_a:.6f} rad "
                f"is more than 1e-3 from pi/2"
            )


def compose_with_arc(
    stack: StackSpec, E: float | np.ndarray, consts: PhysConstants = CONSTANTS
) -> TransferMatrix:
    """Total matrix M_arcL (M_core)^N M_arcR at energy E (scalar or array).

    The core block is raised to its power by squaring rather than cell by
    cell; with no end cells this is just the bare array matrix.
    """
    total = cell_matrix(E, stack.core, stack.outside, consts).power(stack.replicas)
    if stack.left_arc is not None:
        total = compose(cell_matrix(E, stack.left_arc, stack.outside, consts), total)
    if stack.right_arc is not None:
        total = compose(total, cell_matrix(E, stack.right_arc, stack.outside, consts))
    return total


def band_average_transmission(
    stack: StackSpec,
    band: Band,
    grid: EnergyGrid | None = None,
    consts: PhysConstants = CONSTANTS,
) -> float:
    """Mean transmission probability over a uniform grid spanning the band.

    The default grid uses 2048 points; a caller-supplied grid must be at
    least as fine as 2000 samples, since coarse grids visibly bias the
    average when the band contains resonances narrower than the spacing.
    """
    if grid is None:
        grid = EnergyGrid.linear(band.lower, band.upper, 2048)
    elif grid.count < 2000:
        raise ValidationError(
            f"band average needs >= 2000 samples, got {grid.count}"
        )
    return float(np.mean(amplitudes(compose_with_arc(stack, grid.samples, consts)).T))


def stack_phase_time(
    stack: StackSpec, E: float | np.ndarray, consts: PhysConstants = CONSTANTS
):
    """Stationary-phase crossing time hbar d(arg t)/dE of the whole stack, fs.

    Works for any stack (end cells included), unlike the single-band
    formulas in ``timing`` which exploit the periodicity of the bare core.
    dt/dE is exact, from the stack matrix at a jet energy.  The phase is
    cell-referenced, so this is the crossing time, not the delay over free
    propagation.
    """
    t = amplitudes(stack_matrix(energy_jet(E), stack, consts)).t
    return consts.hbar * (t.v.conjugate() * t.d1).imag / abs(t.v) ** 2


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


def design_rule_of_thumb(
    core: CellSpec,
    outside: Layer,
    band: Band,
    consts: PhysConstants = CONSTANTS,
) -> ArcDesign:
    """Quarter-wave/half-mu matching cell for ``core``, from a scaled family.

    The matching energy is where the core's phase crosses pi/2.  The family
    is the core with all widths scaled by s_w and all potentials by s_V;
    a coarse grid over (s_w, s_V) seeds a Nelder-Mead refinement of

        (phi_A - pi/2)^2 + (mu_A - mu_core/2)^2

    evaluated at the matching energy.  Candidates whose own dispersion is
    forbidden there are pushed away with a penalty proportional to their
    gap depth.  The boost direction chi is not part of the objective; for
    cells drawn from the core's own family it comes out aligned, and the
    end-to-end transmission checks would catch it if it did not.
    """
    from scipy.optimize import minimize  # only the designer needs scipy

    model = PotentialCell(core, outside, consts)
    e_c = energy_at_phase(model, band, _QUARTER)
    core_kard = decompose(model.matrix(e_c))
    mu_target = 0.5 * core_kard.mu

    def angles(s_w: float, s_V: float):
        cell = _scaled_cell(core, s_w, s_V)
        return decompose(cell_matrix(e_c, cell, outside, consts)), cell

    def objective(x: np.ndarray) -> float:
        s_w, s_V = float(x[0]), float(x[1])
        if not (0.05 <= s_w <= 3.0 and 0.0 <= s_V <= 2.0):
            return 1e6
        params, _ = angles(s_w, s_V)
        if params.band != "allowed":
            return 10.0 + params.theta**2
        dphi = math.remainder(params.phi - _QUARTER, 2.0 * math.pi)
        return dphi * dphi + (params.mu - mu_target) ** 2

    best_x, best_f = None, math.inf
    for s_w in np.linspace(0.25, 1.25, 21):
        for s_V in np.linspace(0.02, 1.0, 21):
            f = objective(np.array([s_w, s_V]))
            if f < best_f:
                best_x, best_f = np.array([s_w, s_V]), f
    result = minimize(
        objective,
        best_x,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-24, "maxiter": 4000},
    )
    params, cell = angles(float(result.x[0]), float(result.x[1]))
    residual = math.sqrt(objective(result.x))
    if params.band != "allowed" or residual > 1e-2:
        raise NumericError(
            f"no viable design: best residual {residual:.3e} at scales "
            f"(width {result.x[0]:.4f}, barrier {result.x[1]:.4f})"
        )
    return ArcDesign(
        arc_cell=cell,
        target_energy=e_c,
        achieved_mu_a=params.mu,
        achieved_phi_a=params.phi,
    )
