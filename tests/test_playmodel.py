"""Closed-form model cell: exact values at the band center, law identities,
and the analytic derivatives against plain finite differences of the angles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import play_derivatives, play_energies
from sltime.errors import NearBandEdgeError
from sltime.kard import decompose
from sltime.playmodel import PLAY_MODEL, play_eta, play_kard, play_matrix


def test_band_center_exact_values():
    p = play_kard(62.5)
    assert p.phi == pytest.approx(math.pi / 2, abs=1e-15)
    assert math.sinh(p.mu) == pytest.approx(1.6, abs=1e-14)  # sqrt(160/62.5)
    assert p.chi == 0.0
    T1 = 1.0 / abs(play_matrix(62.5).m11) ** 2
    assert T1 == pytest.approx(62.5 / 222.5, rel=1e-14)


def test_band_edges_and_outside_raise():
    assert PLAY_MODEL.band == (50.0, 75.0)
    for E in (50.0, 75.0, 20.0, 80.0):
        with pytest.raises(NearBandEdgeError):
            play_kard(E)


def test_trace_is_linear_everywhere():
    for E in (-10.0, 20.0, 62.5, 75.0, 200.0):
        assert PLAY_MODEL.trace(E) == pytest.approx(2 * 0.08 * (62.5 - E), abs=1e-14)


@given(play_energies)
def test_single_cell_transmission_law(E):
    T1 = 1.0 / abs(play_matrix(E).m11) ** 2
    assert T1 == pytest.approx(E / (E + 160.0), rel=1e-12)


@given(play_energies)
def test_decompose_of_matrix_recovers_angles(E):
    p = play_kard(E)
    q = decompose(play_matrix(E))
    assert q.phi == pytest.approx(p.phi, abs=1e-12)
    assert q.mu == pytest.approx(p.mu, abs=1e-12)
    assert q.chi == pytest.approx(0.0, abs=1e-12)


@given(play_energies, st.integers(1, 8))
def test_n_cell_transmission_closed_form(E, n):
    p = play_kard(E)
    TN = 1.0 / abs(play_matrix(E).power(n).m11) ** 2
    closed = 1.0 / (1.0 + math.sinh(p.mu) ** 2 * math.sin(n * p.phi) ** 2)
    assert TN == pytest.approx(closed, rel=1e-10)


def test_nine_cell_unit_transmission_at_resonances():
    # N phi = m pi makes the stack transparent; invert the linear phase law
    for m in range(1, 9):
        E = 62.5 - math.cos(m * math.pi / 9) / 0.08
        T9 = 1.0 / abs(play_matrix(E).power(9).m11) ** 2
        assert T9 == pytest.approx(1.0, abs=1e-12)


def _fd_angles(E, h=1e-4):
    """Plain central differences of the angles themselves (oracle)."""
    pm, pp = play_kard(E - h), play_kard(E + h)
    p0 = play_kard(E)
    phi_p = (pp.phi - pm.phi) / (2 * h)
    phi_pp = (pp.phi - 2 * p0.phi + pm.phi) / (h * h)
    mu_p = (pp.mu - pm.mu) / (2 * h)
    return phi_p, phi_pp, mu_p


def test_analytic_derivatives_match_finite_differences():
    for E in np.linspace(52.0, 73.0, 25):
        d = play_derivatives(float(E))
        phi_p, phi_pp, mu_p = _fd_angles(float(E))
        assert d.phi_p == pytest.approx(phi_p, rel=1e-7)
        assert d.phi_pp == pytest.approx(phi_pp, rel=1e-4, abs=1e-7)
        assert d.mu_p == pytest.approx(mu_p, rel=1e-6, abs=1e-10)


def test_band_center_derivative_values():
    d = play_derivatives(62.5)
    assert d.phi_p == pytest.approx(0.08, rel=1e-14)      # lam / sin(pi/2)
    assert d.phi_pp == pytest.approx(0.0, abs=1e-14)
    # mu' does NOT vanish at the center: -tanh(mu)/(2 E)
    mu = math.asinh(1.6)
    assert d.mu_p == pytest.approx(-math.tanh(mu) / 125.0, rel=1e-12)
    assert d.mu_p < 0.0


@given(play_energies)
def test_phase_velocity_positive(E):
    assert play_derivatives(E).phi_p > 0.0


def test_eta_branch_and_identity():
    assert play_eta(62.5) == pytest.approx(math.pi / 2, abs=1e-15)
    E = np.linspace(50.3, 74.7, 200)
    eta = np.array([play_eta(float(e)) for e in E])
    assert np.all(np.diff(eta) > 0)          # increasing across the band
    assert np.all((eta > 0) & (eta < math.pi))
    for e in (53.0, 62.5, 71.0):
        p = play_kard(e)
        t_abs = 1.0 / abs(play_matrix(e).m11)
        assert math.cos(play_eta(e)) == pytest.approx(t_abs * math.cos(p.phi), abs=1e-12)
