"""Angle parameterization: round trips, band structure, and the power law.

The independent checks here avoid the package's decomposition: the Bloch
phase comes from arccos of the half-trace directly, and the N-cell law is
verified against literal matrix powers.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import play_derivatives, play_energies
from sltime.errors import NearBandEdgeError, NumericError, ValidationError
from sltime.kard import (
    EDGE_TOL,
    KardParams,
    as_model,
    band_structure,
    decompose,
    energy_at_phase,
    kard_derivatives,
    reconstruct,
)
from sltime.medium import CONSTANTS, CellSpec, EnergyGrid, Layer, representative_cell
from sltime.playmodel import PLAY_MODEL, play_matrix
from sltime.timing import phase_time
from sltime.tmatrix import cell_matrix

OUT = Layer(9.5, 0.0, 0.067)

#: First allowed band of the representative cell, frozen from a 6000-point
#: scan with 1e-12 edge polishing; regression-guarded to 1e-9 here and
#: property-checked (|half trace| = 1 at the edges) below.
REP_BAND1 = (51.7085428790002, 65.36148366986207)


angles = st.tuples(
    st.floats(0.05, 2.0 * math.pi - 0.05),
    st.floats(0.0, 4.0),
    st.floats(-math.pi + 0.01, math.pi - 0.01),
)


@given(angles)
def test_reconstruct_decompose_round_trip(abc):
    phi, mu, chi = abc
    # |cos phi| = 1 to within EDGE_TOL reads as a band edge no matter what mu is
    assume(abs(phi - math.pi) > 1e-3)
    p = KardParams(phi=phi, mu=mu, chi=chi)
    q = decompose(reconstruct(p))
    # phi is recovered in (0, 2 pi); chi only matters when the cell reflects
    assert q.phi == pytest.approx(phi % (2.0 * math.pi), abs=1e-9)
    assert q.mu == pytest.approx(mu, abs=1e-9)
    if mu > 1e-6:
        delta = (q.chi - chi + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(delta) < 1e-7


@given(play_energies)
def test_phase_equals_half_trace_arccos(E):
    p = decompose(play_matrix(E))
    direct = math.acos(max(-1.0, min(1.0, 0.5 * PLAY_MODEL.trace(E))))
    # decompose lifts phi into (0, 2 pi); the first band stays below pi
    assert p.phi == pytest.approx(direct, abs=1e-12)


@given(play_energies, st.integers(2, 32))
def test_trace_power_identity(E, n):
    """Tr(M^N)/2 = cos(N phi): the engine behind every N-cell closed form."""
    M = play_matrix(E)
    p = decompose(M)
    tr = M.power(n).m11.real  # Tr = 2 Re m11 for the stored structure
    assert tr == pytest.approx(math.cos(n * p.phi), abs=1e-9 * (1 + abs(tr)))


@given(play_energies, st.integers(2, 32))
def test_power_reconstruction(E, n):
    M = play_matrix(E)
    p = decompose(M)
    P = M.power(n)
    R = reconstruct(KardParams(n * p.phi, p.mu, p.chi))
    err = max(abs(P.m11 - R.m11), abs(P.m21 - R.m21))
    assert err < 1e-10 * max(1.0, abs(P.m11))


def test_band_structure_representative_cell(rep_band):
    assert rep_band.index == 1
    assert rep_band.lower == pytest.approx(REP_BAND1[0], abs=1e-9)
    assert rep_band.upper == pytest.approx(REP_BAND1[1], abs=1e-9)
    # edges are genuine |half-trace| = 1 points
    model = as_model(representative_cell(), OUT)
    assert abs(model.trace(rep_band.lower)) == pytest.approx(2.0, abs=1e-9)
    assert abs(model.trace(rep_band.upper)) == pytest.approx(2.0, abs=1e-9)


def test_band_structure_finds_multiple_bands():
    bands = band_structure(representative_cell(), OUT,
                           grid=EnergyGrid.linear(1.0, 300.0, 6000))
    assert len(bands) >= 2
    for lo, hi in zip(bands, bands[1:]):
        assert lo.upper < hi.lower  # ordered, separated by gaps
    assert bands[0].parity == -bands[1].parity


def test_band_classification_labels():
    cell = representative_cell()
    mid = decompose(cell_matrix(58.0, cell, outside=OUT))
    gap = decompose(cell_matrix(45.0, cell, outside=OUT))
    assert mid.band == "allowed"
    assert gap.band == "forbidden"


def test_edge_classification_at_polished_edge(rep_band):
    cell = representative_cell()
    p = decompose(cell_matrix(rep_band.lower, cell, outside=OUT))
    assert p.band == "edge"
    assert abs(abs(math.cos(p.phi)) - 1.0) < EDGE_TOL * 10


@given(phi_local=st.floats(0.05, math.pi - 0.05))
def test_energy_at_phase_inverts_band_phase(rep_band, phi_local):
    model = as_model(representative_cell(), OUT)
    E = energy_at_phase(model, rep_band, phi_local)
    assert rep_band.lower < E < rep_band.upper
    phase = math.acos(max(-1.0, min(1.0, 0.5 * model.trace(E) * rep_band.parity)))
    assert phase == pytest.approx(phi_local, abs=1e-9)


def test_energy_at_phase_refuses_a_phase_outside_the_band_as_input(rep_band):
    """A local phase outside (0, pi) is a malformed input (exit 3), not a
    numerical failure."""
    model = as_model(representative_cell(), OUT)
    with pytest.raises(ValidationError, match=r"phi_local must be in \(0, pi\), got 4\.0"):
        energy_at_phase(model, rep_band, 4.0)


def test_derivatives_match_play_closed_forms(play_band):
    """The angle algebra of kard_derivatives, fed the model's c', c'' and
    g', against the model's own derivatives in angle space: to roundoff."""
    for E in np.linspace(52.0, 73.0, 41):
        d = kard_derivatives(PLAY_MODEL, None, float(E), band=play_band)
        an = play_derivatives(float(E))
        assert d.phi_p == pytest.approx(an.phi_p, rel=1e-12)
        assert d.mu_p == pytest.approx(an.mu_p, rel=1e-12)
        assert d.phi_pp == pytest.approx(an.phi_pp, rel=1e-12)


def test_derivatives_next_to_a_band_edge_and_outside_the_band(play_band, rep_band):
    """No stencil to fit in: 1e-4 meV inside an edge is as good as the
    middle, and an energy outside the band named is refused."""
    E = play_band.lower + 1e-4
    d = kard_derivatives(PLAY_MODEL, None, E, band=play_band)
    an = play_derivatives(E)
    assert np.isfinite([d.phi_p, d.phi_pp, d.mu_p]).all()
    assert d.phi_p == pytest.approx(an.phi_p, rel=1e-9)
    cell = representative_cell()
    d = kard_derivatives(cell, OUT, rep_band.lower + 1e-4, band=rep_band)
    assert np.isfinite([d.phi_p, d.phi_pp, d.mu_p]).all() and d.phi_p > 0.0
    for E in (play_band.lower - 1e-4, play_band.upper + 1e-4, 40.0):
        with pytest.raises(NearBandEdgeError):
            kard_derivatives(PLAY_MODEL, None, E, band=play_band)
    with pytest.raises(NearBandEdgeError):
        kard_derivatives(cell, OUT, np.array([58.0, rep_band.upper + 1e-9]), band=rep_band)


def test_band_structure_requires_grid():
    with pytest.raises(TypeError):
        band_structure(representative_cell(), OUT)


#: The first two bands of the representative cell in the CLI's band window,
#: as the 6000-sample scan polished them to 1e-12 meV.
REP_BANDS = [(51.708542879000206, 65.36148366986205, 1),
             (197.23859734858502, 263.60648171673085, -1)]


def test_band_scan_splits_out_a_band_narrower_than_its_spacing():
    """2.5 nm wells around a 12 nm barrier: band 1 is 0.038 meV wide and lies
    between two forbidden samples of the CLI's 0.05 meV scan."""
    well, barrier = Layer(2.5, 0.0, 0.067), Layer(12.0, 290.0, 0.0919)
    cell = CellSpec((well, barrier, well), symmetric=True)
    bands = band_structure(cell, OUT, grid=EnergyGrid.linear(1.0, 300.0, 6000))
    assert bands[0].index == 1
    assert bands[0].lower == pytest.approx(80.705, abs=5e-4)
    assert bands[0].upper == pytest.approx(80.743, abs=5e-4)
    assert bands[1].lower == pytest.approx(274.4031432346906, abs=1e-9)
    model = as_model(cell, OUT)
    for E in (bands[0].lower, bands[0].upper):
        assert abs(model.trace(E)) == pytest.approx(2.0, abs=1e-9)


def test_band_scan_keeps_the_representative_bands():
    bands = band_structure(representative_cell(), OUT, grid=EnergyGrid.linear(1.0, 300.0, 6000))
    assert len(bands) == len(REP_BANDS)
    for band, (lower, upper, parity) in zip(bands, REP_BANDS):
        assert band.lower == pytest.approx(lower, abs=1e-9)
        assert band.upper == pytest.approx(upper, abs=1e-9)
        assert band.parity == parity


def test_certified_rep5_edges_match_the_sampled_scan_to_1e_12():
    """The certified edges of the representative cell are the ones the
    6000-sample scan polished, to 1e-12 meV, from a 2-sample grid."""
    two = band_structure(representative_cell(), OUT, grid=EnergyGrid.linear(1.0, 300.0, 2))
    dense = band_structure(representative_cell(), OUT, grid=EnergyGrid.linear(1.0, 300.0, 6000))
    assert two == dense
    assert len(two) == len(REP_BANDS)
    for band, (lower, upper, parity) in zip(two, REP_BANDS):
        assert band.lower == pytest.approx(lower, abs=1e-12)
        assert band.upper == pytest.approx(upper, abs=1e-12)
        assert band.parity == parity


def test_certified_band_narrower_than_a_micro_ev_between_two_samples():
    """2 nm half-wells around a 25 nm, 400 meV barrier: the first band is
    3.4e-7 meV wide and lies between two samples of a 6000-sample grid; it
    is found from the window alone, with |Tr M/2| < 1 inside and > 1 just
    outside."""
    well, barrier = Layer(2.0, 0.0, 0.067), Layer(25.0, 400.0, 0.0919)
    cell = CellSpec((well, barrier, well), symmetric=True)
    grid = EnergyGrid.linear(1.0, 300.0, 6000)
    bands = band_structure(cell, OUT, grid=EnergyGrid.linear(1.0, 300.0, 2))
    assert len(bands) == 1
    band = bands[0]
    assert 0.0 < band.width <= 1e-6
    i = np.searchsorted(grid.samples, band.lower)
    assert grid.samples[i - 1] < band.lower and band.upper < grid.samples[i]
    half = 0.5 * as_model(cell, OUT).trace(
        np.array([band.lower - 1e-3 * band.width, 0.5 * (band.lower + band.upper),
                  band.upper + 1e-3 * band.width]))
    assert half[0] > 1.0 and abs(half[1]) < 1.0 and half[2] < -1.0
    assert band.parity == 1 and 1.0 < band.lower and band.upper < 300.0


def test_closed_gap_bands_share_their_edge():
    """A uniform 9.5 nm GaAs cell has every gap closed: |Tr M/2| touches 1
    at kL = n pi without crossing it.  Band 1's upper edge is band 2's lower
    edge, at kL = pi; rounding used to split them by 1.2e-7 meV."""
    bands = band_structure(CellSpec((OUT,)), OUT, grid=EnergyGrid.linear(1.0, 300.0, 2))
    assert len(bands) == 3
    touch = (math.pi / 9.5) ** 2 * CONSTANTS.hbar2_over_2m0 / 0.067
    assert bands[0].upper == bands[1].lower == pytest.approx(touch, abs=1e-10)
    assert bands[1].upper == bands[2].lower == pytest.approx(4.0 * touch, abs=1e-9)


def test_decompose_keeps_phi_in_its_range_across_closed_gaps():
    """Over the default window of `sltime kard` a uniform lead-material cell
    passes two closed gaps; every allowed phi stays in (0, 2 pi), out of
    which a 2 pi lift to a continuous phase would move 206 of these samples."""
    E = EnergyGrid.linear(1.05, 299.95, 1200).samples
    p = decompose(cell_matrix(E, CellSpec((OUT,)), OUT))
    phi = p.phi[p.band == "allowed"]
    assert phi.size == 1200
    assert np.all((0.0 < phi) & (phi < 2.0 * math.pi))


def test_cell_without_its_lead_is_a_validation_error(rep_band):
    """A CellSpec handed without its lead layer is a malformed input (exit 3),
    not a numeric failure."""
    with pytest.raises(ValidationError, match="needs its lead layer"):
        phase_time(representative_cell(), None, 5, 58.0, band=rep_band)
    with pytest.raises(ValidationError, match="needs its lead layer"):
        band_structure(representative_cell(), grid=EnergyGrid.linear(1.0, 300.0, 2))


def test_open_gap_at_a_dirichlet_eigenvalue_stays_open():
    """In a mirror-symmetric cell each Dirichlet eigenvalue is an edge of
    its gap, so |Tr M/2| is 1 there although the gap is open: 4 nm half
    wells around a 0.3 nm, 20 meV barrier keep their 1.44 meV first gap."""
    well = Layer(4.0, 0.0, 0.067)
    cell = CellSpec((well, Layer(0.3, 20.0, 0.067), well), symmetric=True)
    bands = band_structure(cell, OUT, grid=EnergyGrid.linear(1.0, 600.0, 2))
    assert len(bands) == 3
    assert bands[1].lower - bands[0].upper == pytest.approx(1.437, abs=1e-3)
    mid = 0.5 * (bands[0].upper + bands[1].lower)
    assert abs(as_model(cell, OUT).trace(mid)) > 2.0 + 1e-4


def _random_cells(seed: int, count: int) -> list[CellSpec]:
    """3-5 layers alternating wells (0.5-8 nm, V = 0) and barriers
    (1-14 nm, 100-400 meV), starting with a well."""
    rng = np.random.default_rng(seed)
    cells = []
    for _ in range(count):
        layers = [Layer(rng.uniform(0.5, 8.0), 0.0, 0.067) if j % 2 == 0
                  else Layer(rng.uniform(1.0, 14.0), rng.uniform(100.0, 400.0), 0.0919)
                  for j in range(rng.integers(3, 6))]
        cells.append(CellSpec(tuple(layers)))
    return cells


@pytest.mark.parametrize("count", [2, 40])
def test_certified_bands_agree_with_a_dense_sign_change_count(count):
    """Tr M changes sign exactly once inside every band and never in a gap,
    so on a 6000-sample grid its sign changes count the bands whose centre
    lies in the window, even bands far narrower than the spacing.  The
    certified bands from a coarse grid must hold exactly those sign changes,
    one each.  (A sampled scan of 40 samples misses bands here.)"""
    dense = np.linspace(0.5, 450.0, 6000)
    for cell in _random_cells(11, 150):
        model = as_model(cell, OUT)
        trace = model.trace(dense)
        flips = np.flatnonzero(trace[:-1] * trace[1:] < 0.0)
        bands = band_structure(cell, OUT, grid=EnergyGrid.linear(0.5, 450.0, count))
        lower = np.array([band.lower for band in bands])
        upper = np.array([band.upper for band in bands])
        centred = model.trace(lower) * model.trace(upper) < 0.0
        assert centred.sum() == flips.size, cell
        for i in flips:
            assert ((lower <= dense[i + 1]) & (upper >= dense[i])).sum() == 1, cell
        assert [band.parity for band in bands[1:]] == [-band.parity for band in bands[:-1]]
