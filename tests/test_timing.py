"""Timing closed forms vs direct differentiation of the transmission phase.

The oracle here never touches the angle derivatives: it differentiates the
unwrapped argument of t_N = 1/(M^N)_11 with a five-point stencil.  Envelope
tangency is checked at root-polished resonance and antiresonance energies,
where the closed form predicts exact contact.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import play_energies
from sltime import kard, precise, timing
from sltime.cli import main
from sltime.errors import NearBandEdgeError, NumericError, ValidationError
from sltime.kard import PotentialCell, as_model, band_structure, energy_at_phase
from sltime.medium import (
    CONSTANTS,
    CellSpec,
    EnergyGrid,
    Layer,
    StackSpec,
    representative_cell,
    save_stack,
)
from sltime.playmodel import PLAY_MODEL
from sltime.timing import (
    _refined_samples,
    bloch_time,
    envelopes,
    free_time,
    phase_time,
    timing_curve,
    transmission_sweep,
)
from sltime.tmatrix import amplitudes, cell_matrix

OUT = Layer(9.5, 0.0, 0.067)


def _phase_fd(model, E, N, h=1e-3):
    """hbar d(arg t_N)/dE by a five-point stencil on the unwrapped phase."""
    pts = [E - 2 * h, E - h, E + h, E + 2 * h]
    theta = np.unwrap([-np.angle(model.matrix(x).power(N).m11) for x in pts])
    slope = (theta[0] - 8 * theta[1] + 8 * theta[2] - theta[3]) / (12 * h)
    return CONSTANTS.hbar * slope


def test_phase_time_matches_phase_derivative_representative():
    model = as_model(representative_cell(), OUT)
    for E in (54.5, 57.0, 59.0, 61.5):  # off-resonance, smooth phase
        tau = phase_time(model, None, 5, E)
        assert tau == pytest.approx(_phase_fd(model, E, 5), rel=2e-6)


@given(play_energies)
def test_phase_time_matches_phase_derivative_play(E):
    tau = phase_time(PLAY_MODEL, None, 9, E)
    oracle = _phase_fd(PLAY_MODEL, E, 9, h=2e-4)
    assert tau == pytest.approx(oracle, rel=2e-4, abs=1e-6)


def test_envelope_contact_at_resonances(rep_band):
    model = as_model(representative_cell(), OUT)
    for m in range(1, 5):
        E = energy_at_phase(model, rep_band, m * math.pi / 5)
        env_max, env_min, _ = envelopes(model, None, 5, E, band=rep_band)
        assert phase_time(model, None, 5, E, band=rep_band) == pytest.approx(env_max, rel=1e-10)
        # the same energies carry unit transmission
        sweep_t2 = 1.0 / abs(model.matrix(E).power(5).m11) ** 2
        assert sweep_t2 == pytest.approx(1.0, abs=1e-10)


def test_envelope_contact_at_antiresonances(rep_band):
    model = as_model(representative_cell(), OUT)
    for p in range(5):
        E = energy_at_phase(model, rep_band, (p + 0.5) * math.pi / 5)
        env_max, env_min, _ = envelopes(model, None, 5, E, band=rep_band)
        assert phase_time(model, None, 5, E, band=rep_band) == pytest.approx(env_min, rel=1e-10)


@given(play_energies, st.integers(1, 12))
def test_envelope_geometric_mean(E, N):
    env_max, env_min, bloch_total = envelopes(PLAY_MODEL, None, N, E)
    assert math.sqrt(env_max * env_min) == pytest.approx(bloch_total, rel=1e-12)
    assert env_max >= bloch_total >= env_min > 0.0


def test_bloch_time_play_center(play_band):
    tau = bloch_time(PLAY_MODEL, None, 62.5, band=play_band)
    assert tau == pytest.approx(CONSTANTS.hbar * 0.08, rel=1e-8)


def test_free_cell_phase_time_is_classical_crossing():
    lead = Layer(3.0, 0.0, 0.067)
    cell = CellSpec(layers=(lead,))
    E, N = 60.0, 4
    # independent arithmetic: v = hbar k / m*, k from the parabolic dispersion
    k = math.sqrt(E * 0.067 / CONSTANTS.hbar2_over_2m0)
    v = 2.0 * CONSTANTS.hbar2_over_2m0 * k / (CONSTANTS.hbar * 0.067)
    expect = N * 3.0 / v
    assert free_time(N * 3.0, E, lead) == pytest.approx(expect, rel=1e-12)
    assert phase_time(cell, lead, N, E) == pytest.approx(expect, rel=1e-9)


def test_free_time_needs_propagating_lead():
    with pytest.raises(NumericError):
        free_time(10.0, -5.0, OUT)


def test_phase_time_raises_in_gap():
    with pytest.raises(NearBandEdgeError):
        phase_time(representative_cell(), OUT, 5, 45.0)


def test_transmission_sweep_envelope_nan_pattern(rep_band):
    sweep = transmission_sweep(representative_cell(), OUT, 5,
                               grid=EnergyGrid.linear(40.0, 70.0, 301))
    gap = sweep.energies < rep_band.lower - 0.05
    inside = (sweep.energies > rep_band.lower + 0.05) & (sweep.energies < rep_band.upper - 0.05)
    assert np.isnan(sweep.envelope[gap]).all()
    assert np.isfinite(sweep.envelope[inside]).all()
    assert np.all(sweep.t2 > 0.0) and np.all(sweep.t2 <= 1.0 + 1e-12)
    # in-band transmission never dips below the envelope of minima
    assert np.all(sweep.t2[inside] >= sweep.envelope[inside] - 1e-12)


#: rep5's materials with a 6.43 nm barrier, N = 4: cosh(mu) reaches 1e2-7e3
#: in band 1, and the float64 product of its cell matrices misses |t_N|^2 by
#: more than 1e-10 at some samples of this grid (56.81829 meV among them).
OPAQUE = CellSpec((Layer(3.294841400416981, 0.0, 0.067), Layer(6.426939544999727, 290.0, 0.0919),
                   Layer(3.294841400416981, 0.0, 0.067)), symmetric=True)
OPAQUE_GRID = EnergyGrid.linear(56.81, 56.83, 2001)


def test_transmission_sweep_accepts_an_opaque_cell_its_product_misses(tmp_path):
    sweep = transmission_sweep(OPAQUE, OUT, 4, grid=OPAQUE_GRID)
    E = sweep.energies[np.argmin(np.abs(sweep.energies - 56.81829))]
    t2 = sweep.t2[sweep.energies == E][0]
    assert abs(t2 - precise.transmission(OPAQUE, OUT, 4, E)) <= 1e-11 * t2
    direct = amplitudes(cell_matrix(E, OPAQUE, OUT).power(4)).T
    assert abs(direct - t2) > 1e-10 * t2  # the float64 product alone fails the gate
    save_stack(StackSpec(core=OPAQUE, replicas=4, outside=OUT), tmp_path / "S.json")
    code = main(["transmission", "--stack", str(tmp_path / "S.json"), "--emin", "56.81",
                 "--emax", "56.83", "--count", "2001", "-o", str(tmp_path / "t.csv")])
    assert code == 0


def test_transmission_sweep_rejects_a_closed_form_off_by_1e_9(monkeypatch):
    real = timing.decompose

    def off_by_1e_9(M):  # mu such that the closed form reads |t_N|^2 (1 - 1e-9)
        p = real(M)
        s2 = np.sin(4 * p.phi) ** 2
        x = np.sinh(p.mu) ** 2 * s2
        return dataclasses.replace(p, mu=np.arcsinh(np.sqrt(((1 + x) / (1 - 1e-9) - 1) / s2)))

    monkeypatch.setattr(timing, "decompose", off_by_1e_9)
    with pytest.raises(NumericError, match="disagrees"):
        transmission_sweep(OPAQUE, OUT, 4, grid=OPAQUE_GRID)


def test_decimal_reference_matches_the_product_of_a_transparent_cell(rep_band):
    E = np.linspace(rep_band.lower, rep_band.upper, 7)[1:-1]
    direct = amplitudes(cell_matrix(E, representative_cell(), OUT).power(5)).T
    exact = [precise.transmission(representative_cell(), OUT, 5, e) for e in E]
    assert np.all(np.abs(direct - exact) <= 1e-12 * direct)


def test_timing_curve_identities_and_refinement(rep_band):
    lo, hi = rep_band.interior(5e-3)
    base = EnergyGrid.linear(lo, hi, 120)
    curve = timing_curve(representative_cell(), OUT, 5, base, band=rep_band,
                         refine=[(52.81, 0.14)])
    assert len(curve.energies) > 120
    assert np.all(np.diff(curve.energies) > 0)
    assert curve.energies[0] >= lo and curve.energies[-1] <= hi
    got = np.sqrt(curve.env_max * curve.env_min)
    assert np.allclose(got, curve.tau_bloch_total, rtol=1e-10)
    near = np.abs(curve.energies - 52.81) < 0.3
    assert near.sum() > 60  # the refinement window is actually dense
    # delay column really is phase time minus the free crossing
    i = int(np.argmin(np.abs(curve.energies - 58.0)))
    E = float(curve.energies[i])
    expect = curve.tau_ph[i] - free_time(5 * 9.5, E, OUT)
    assert curve.tau_ph_delay[i] == pytest.approx(expect, rel=1e-12)


def test_refinement_window_count_ignores_the_last_bit_of_the_width():
    """Every window holds 240 samples; a width one ulp larger must not add one."""
    base = EnergyGrid.linear(40.0, 70.0, 3)
    for width in np.linspace(0.01, 0.3, 400):
        for w in (width, np.nextafter(width, np.inf)):
            assert len(_refined_samples(base, [(52.81, w)], 40.0, 70.0)) == 3 + 240


def test_timing_curve_model_cell_has_nan_delay(play_band):
    lo, hi = play_band.interior(5e-3)
    curve = timing_curve(PLAY_MODEL, None, 9, EnergyGrid.linear(lo, hi, 50), band=play_band)
    assert np.isnan(curve.tau_ph_delay).all()


def test_argument_validation():
    with pytest.raises(ValidationError):
        phase_time(PLAY_MODEL, None, 0, 60.0)
    with pytest.raises(ValidationError):
        timing_curve(PLAY_MODEL, None, 9)
    with pytest.raises(ValidationError):
        transmission_sweep(PLAY_MODEL, None, 9)
    with pytest.raises(ValidationError):
        timing_curve(PLAY_MODEL, None, 9, EnergyGrid.linear(55.0, 70.0, 10),
                     refine=[(62.5, -1.0)])


@given(st.integers(2, 9))
def test_phase_time_meets_both_envelope_identities(N):
    """tau_ph touches env_max at the first transmission maximum, and
    env_max env_min = (N tau_Bl)^2, for every N."""
    model = PotentialCell(representative_cell(), OUT)
    band = band_structure(model, grid=EnergyGrid.linear(1.0, 300.0, 3000))[0]
    E = energy_at_phase(model, band, math.pi / N)
    env_max, env_min, n_bloch = envelopes(model, None, N, E, band=band)
    tau = phase_time(model, None, N, E, band=band)
    assert tau == pytest.approx(env_max, rel=1e-9)
    assert env_max * env_min == pytest.approx(n_bloch**2, rel=1e-12)


def test_envelopes_evaluate_the_cell_matrix_once(monkeypatch, rep_band):
    """The 1e-8 cross-check reads Im M11 from the matrix the derivative call
    built, the value part of its jet: bit for bit the plain kernel's matrix,
    so one ``cell_matrix`` call serves both."""
    model = PotentialCell(representative_cell(), OUT)
    E = np.linspace(*rep_band.interior(1e-3), 800)
    for energy in (E, float(E[123])):
        M = kard._kard_derivatives(model, energy, rep_band, second=False)[1]
        plain = model.matrix(energy)
        assert np.array_equal(M.m11, plain.m11) and np.array_equal(M.m21, plain.m21)
    curve = timing_curve(model, None, 5, EnergyGrid(E), band=rep_band)
    real, calls = kard.cell_matrix, []
    monkeypatch.setattr(kard, "cell_matrix", lambda *args: calls.append(args) or real(*args))
    env_max, env_min, n_bloch = envelopes(model, None, 5, E, band=rep_band)
    assert len(calls) == 1
    assert np.array_equal(env_max, curve.env_max)
    assert np.array_equal(env_min, curve.env_min)
    assert np.array_equal(n_bloch, curve.tau_bloch_total)
