"""Matching end cells: the exact cancellation identity and the designer.

The cancellation test builds matrices directly from prescribed angles, so
it exercises the algebraic identity with no potential-well numerics in the
loop.  The designer is then checked end to end: achieved angles, unit
transmission at the matching energy, and the band-average improvement.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sltime.arc import (
    ArcDesign,
    band_average_transmission,
    compose_with_arc,
    design_rule_of_thumb,
    stack_phase_time,
)
from sltime.errors import NumericError, ValidationError
from sltime.kard import KardParams, band_structure, decompose, reconstruct
from sltime.medium import (
    CellSpec,
    EnergyGrid,
    Layer,
    StackSpec,
    representative_cell,
    representative_stack,
)
from sltime.timing import phase_time
from sltime.tmatrix import amplitudes, cell_matrix, stack_matrix

OUT = Layer(9.5, 0.0, 0.067)

# Designer output for the reference core, frozen from a validated run.
ARC_TARGET_E = 57.8777907484534
ARC_PHI_A = 1.5707963267949423
ARC_MU_A = 1.1897964063888768
ARC_LAYERS = (
    (2.6118291606260966, 0.0, 0.067),
    (2.41091922519332, 157.91036248642195, 0.0919),
    (2.6118291606260966, 0.0, 0.067),
)
BARE_BAND_AVG = 0.14476098703845838
DRESSED_BAND_AVG = 0.79401515210173779


@pytest.fixture(scope="module")
def design(rep_band):
    return design_rule_of_thumb(representative_cell(), OUT, rep_band)


@given(
    st.floats(0.1, 2.0 * math.pi - 0.1),
    st.floats(0.01, 3.0),
    st.floats(-3.0, 3.0),
    st.integers(1, 6),
)
def test_quarter_wave_half_mu_cancellation(phi, mu, chi, N):
    """An end cell with phi = pi/2 and half the core's mu, sharing chi,
    makes the sandwich perfectly transparent -- for any core phase."""
    if abs(phi - math.pi) < 1e-3:
        phi += 2e-3  # keep the core matrix decomposable, not an edge case
    core = reconstruct(KardParams(phi=phi, mu=mu, chi=chi))
    arc = reconstruct(KardParams(phi=0.5 * math.pi, mu=0.5 * mu, chi=chi))
    total = arc @ core.power(N) @ arc
    assert amplitudes(total).T == pytest.approx(1.0, abs=1e-10)


def test_cancellation_needs_aligned_boost_direction():
    core = reconstruct(KardParams(phi=1.1, mu=1.5, chi=0.3))
    good = reconstruct(KardParams(phi=0.5 * math.pi, mu=0.75, chi=0.3))
    bad_chi = reconstruct(KardParams(phi=0.5 * math.pi, mu=0.75, chi=1.1))
    bad_mu = reconstruct(KardParams(phi=0.5 * math.pi, mu=1.5, chi=0.3))
    T = lambda arc: amplitudes(arc @ core.power(4) @ arc).T
    assert T(good) == pytest.approx(1.0, abs=1e-12)
    assert T(bad_chi) < 0.999
    assert T(bad_mu) < 0.999


def test_design_regression(design):
    assert design.target_energy == pytest.approx(ARC_TARGET_E, rel=1e-12)
    assert design.achieved_phi_a == pytest.approx(ARC_PHI_A, abs=1e-9)
    assert design.achieved_mu_a == pytest.approx(ARC_MU_A, rel=1e-9)
    got = [(l.width, l.potential, l.mass_ratio) for l in design.arc_cell.layers]
    for got_layer, want_layer in zip(got, ARC_LAYERS):
        assert got_layer == pytest.approx(want_layer, rel=1e-9)


def test_design_takes_largest_quarter_wave_root_on_narrow_band_core():
    """A nine-cell core whose 0.8 meV band sits deep in a wide gap: at the
    core's own width, Tr M_A falls through zero just above zero barrier and
    rises back through it at the core's barrier.  Only the largest root is
    the core's branch.  The values are frozen from an independent
    two-dimensional (Nelder-Mead) search."""
    half = Layer(2.863583088353968, 0.0, 0.067)
    core = CellSpec((half, Layer(7.180225799104908, 290.0, 0.0919), half), symmetric=True)
    band = band_structure(core, OUT, grid=EnergyGrid.linear(1.0, 300.0, 6000))[0]
    design = design_rule_of_thumb(core, OUT, band)
    assert design.target_energy == pytest.approx(68.46786885072582, rel=1e-9)
    assert design.achieved_mu_a == pytest.approx(2.669038771602875, rel=1e-9)
    got = [(l.width, l.potential) for l in design.arc_cell.layers]
    want = [(2.252959963096814, 0.0), (5.649132835421527, 161.0111030210386),
            (2.252959963096814, 0.0)]
    for got_layer, want_layer in zip(got, want):
        assert got_layer == pytest.approx(want_layer, rel=1e-9)


def test_design_halves_core_mu(design, rep_band):
    core_mu = decompose(
        stack_matrix(design.target_energy, representative_stack(replicas=1))
    ).mu
    assert design.achieved_mu_a == pytest.approx(0.5 * core_mu, abs=1e-6)


def test_dressed_stack_transparent_at_matching_energy(design):
    dressed = StackSpec(
        core=representative_cell(),
        replicas=5,
        outside=OUT,
        left_arc=design.arc_cell,
        right_arc=design.arc_cell,
    )
    T = amplitudes(stack_matrix(design.target_energy, dressed)).T
    assert T == pytest.approx(1.0, abs=1e-5)


def test_band_average_improvement(design, rep_band):
    bare = representative_stack(5)
    dressed = StackSpec(
        core=bare.core,
        replicas=5,
        outside=bare.outside,
        left_arc=design.arc_cell,
        right_arc=design.arc_cell,
    )
    grid = EnergyGrid.linear(rep_band.lower, rep_band.upper, 2048)
    avg_bare = band_average_transmission(bare, rep_band, grid)
    avg_dressed = band_average_transmission(dressed, rep_band, grid)
    assert avg_bare == pytest.approx(BARE_BAND_AVG, rel=1e-10)
    assert avg_dressed == pytest.approx(DRESSED_BAND_AVG, rel=1e-10)
    assert avg_dressed > 4.0 * avg_bare


def test_dressed_stack_matrix_is_the_sequential_cell_product(design):
    """End cell, core^3 by squaring, end cell, against the cell-by-cell
    product, to 1e-12 of the product of the factors' norms; in band, at
    the matching energy, and in the gap below the band."""
    arc, core = design.arc_cell, representative_cell()
    dressed = StackSpec(core=core, replicas=3, outside=OUT, left_arc=arc, right_arc=arc)
    E = np.array([54.0, design.target_energy, 61.0, 45.0])
    A, C = cell_matrix(E, arc, OUT), cell_matrix(E, core, OUT)
    flat = A @ C @ C @ C @ A
    scale = (abs(A.m11) + abs(A.m21)) ** 2 * (abs(C.m11) + abs(C.m21)) ** 3
    M = stack_matrix(E, dressed)
    assert np.all(abs(M.m11 - flat.m11) <= 1e-12 * scale)
    assert np.all(abs(M.m21 - flat.m21) <= 1e-12 * scale)


@pytest.mark.parametrize("E", [57.9, np.linspace(52.0, 64.0, 7)])
def test_compose_with_arc_is_stack_matrix(design, E):
    """The older name returns the very same matrix, bit for bit."""
    dressed = StackSpec(core=representative_cell(), replicas=5, outside=OUT,
                        left_arc=design.arc_cell, right_arc=design.arc_cell)
    old, new = compose_with_arc(dressed, E), stack_matrix(E, dressed)
    assert np.array_equal(old.m11, new.m11) and np.array_equal(old.m21, new.m21)


def test_stack_phase_time_matches_band_formula(rep_band):
    bare = representative_stack(5)
    for E in (56.5, 58.5, 61.5):
        direct = stack_phase_time(bare, E)
        closed = phase_time(bare.core, bare.outside, 5, E, band=rep_band)
        assert direct == pytest.approx(closed, rel=1e-6)


def test_arc_design_validates_quarter_wave():
    cell = CellSpec((Layer(2.0, 100.0, 0.08),))
    with pytest.raises(ValidationError):
        ArcDesign(arc_cell=cell, target_energy=58.0, achieved_mu_a=1.0,
                  achieved_phi_a=0.5 * math.pi + 0.01)


def test_arc_design_refuses_a_nan_quarter_wave_angle():
    cell = CellSpec((Layer(2.0, 100.0, 0.08),))
    with pytest.raises(ValidationError, match="quarter-wave"):
        ArcDesign(arc_cell=cell, target_energy=58.0, achieved_mu_a=1.0,
                  achieved_phi_a=math.nan)


def test_design_refuses_a_nan_residual(monkeypatch, rep_band):
    """The final gate states its passing condition, so a NaN residual fails
    it instead of passing the design through."""
    monkeypatch.setattr("sltime.arc.math.hypot", lambda *args: math.nan)
    stack = representative_stack(5)
    with pytest.raises(NumericError, match="residual nan"):
        design_rule_of_thumb(stack.core, stack.outside, rep_band)


def test_band_average_rejects_coarse_grid(rep_band):
    with pytest.raises(ValidationError):
        band_average_transmission(
            representative_stack(5), rep_band,
            EnergyGrid.linear(rep_band.lower, rep_band.upper, 512),
        )
