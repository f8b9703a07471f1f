"""Resonance lineshapes vs brute-force scans of the exact transmission.

Width parameters are validated by actually measuring the half-maximum
points of |t_N|^2 with a root finder, never by re-deriving the closed
forms.  A full-precision table for the five-cell reference stack guards
against silent drift in the derivative machinery.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from sltime.errors import ValidationError
from sltime.kard import as_model, energy_at_phase
from sltime.medium import EnergyGrid, Layer, representative_cell
from sltime.playmodel import PLAY_MODEL, play_matrix
from sltime.resonance import approx_curves, fit_extrema, fit_peak, fit_valley, locate_extrema
from sltime.timing import envelopes, phase_time

OUT = Layer(9.5, 0.0, 0.067)

# Full-precision lineshape table for the 5-cell reference stack (band 1),
# frozen from a validated run; guards every derivative code path at once.
# The derivatives are exact up to roundoff (forward-mode through the layer
# product).  The table was last refrozen when they replaced five-point
# stencils, which left every E in place and moved the peak Gamma and tau by
# <= 9.3e-13 relative, the valley Gamma by <= 6.1e-13, and b (built on a
# second derivative) by <= 1.4e-9.
REP5_PEAKS = {
    1: (52.8099405105902, 0.14313538003871712, -0.04438448067881223, 9246.6851159462),
    2: (55.857914341103616, 0.42062663592485827, -0.021675436979459013, 3176.6690122743435),
    3: (60.019899820397974, 0.4937023291636372, 0.011366836169137081, 2710.0030936205712),
    4: (63.79712863819773, 0.21881552419178377, 0.0449359431358458, 6056.731236893132),
}
REP5_VALLEYS = {
    0: (51.98775191532396, 0.7087876514953128),
    1: (54.12762074818233, 1.9826236528489862),
    2: (57.87779074845337, 2.7364667692695397),
    3: (62.07338910128096, 2.487709997448756),
    4: (64.95334400969924, 1.0262267119603343),
}


def _t_play(E: float, N: int) -> float:
    return 1.0 / abs(play_matrix(E).power(N).m11) ** 2


@pytest.mark.parametrize("N", range(2, 13))
def test_extrema_counts_and_interleaving(N, play_band):
    peaks, valleys = locate_extrema(PLAY_MODEL, None, N, band=play_band)
    assert len(peaks) == N - 1
    assert len(valleys) == N
    merged = sorted(peaks + valleys)
    for m, E in enumerate(peaks):
        assert valleys[m] < E < valleys[m + 1]
    assert merged == sorted(merged)
    fits = [fit_valley(PLAY_MODEL, None, N, p, band=play_band) for p in range(N)]
    assert [f.edge_degraded for f in fits] == [p in (0, N - 1) for p in range(N)]


def test_two_cells_single_center_peak(play_band):
    peaks, _ = locate_extrema(PLAY_MODEL, None, 2, band=play_band)
    assert len(peaks) == 1
    assert peaks[0] == pytest.approx(62.5, abs=1e-9)  # phi = pi/2 energy


def _measured_fwhm(model, fit, N):
    def f(E):
        return 1.0 / abs(model.matrix(E).power(N).m11) ** 2 - 0.5

    lo = brentq(f, fit.E_m - fit.Gamma_m, fit.E_m, xtol=1e-13)
    hi = brentq(f, fit.E_m, fit.E_m + fit.Gamma_m, xtol=1e-13)
    return hi - lo


@pytest.mark.parametrize("N, m, tol", [(5, 1, 0.005), (9, 1, 0.002), (18, 2, 0.001)])
def test_peak_width_against_measured_fwhm(N, m, tol, rep_band):
    model = as_model(representative_cell(), OUT)
    fit = fit_peak(model, None, N, m, band=rep_band)
    assert 1.0 / abs(model.matrix(fit.E_m).power(N).m11) ** 2 == pytest.approx(1.0, abs=1e-10)
    assert _measured_fwhm(model, fit, N) == pytest.approx(fit.Gamma_m, rel=tol)


def test_peak_width_error_shrinks_with_array_length(rep_band):
    """At fixed Bloch phase (m/N = 1/9) the linearization window narrows
    like 1/N, so the relative width error must fall monotonically."""
    model = as_model(representative_cell(), OUT)
    errs = []
    for N, m in [(9, 1), (18, 2), (36, 4)]:
        fit = fit_peak(model, None, N, m, band=rep_band)
        errs.append(abs(_measured_fwhm(model, fit, N) / fit.Gamma_m - 1.0))
    assert errs[0] > errs[1] > errs[2]


def test_peak_width_weakly_reflecting_cell_is_looser(play_band):
    # sinh(mu) ~ 1.6 for the model cell: the sine flattening widens the
    # true half-max crossing by arcsin(1/sinh mu) / (1/sinh mu) - 1 ~ 8%,
    # independent of N -- the prediction stays a systematic underestimate.
    fit = fit_peak(PLAY_MODEL, None, 9, 5, band=play_band)
    measured = _measured_fwhm(PLAY_MODEL, fit, 9)
    assert measured > fit.Gamma_m
    assert measured == pytest.approx(fit.Gamma_m, rel=0.10)


def test_rep5_peak_table_regression(rep_band):
    cell = representative_cell()
    for m, (E, G, b, tau) in REP5_PEAKS.items():
        fit = fit_peak(cell, OUT, 5, m, band=rep_band)
        assert fit.E_m == pytest.approx(E, rel=1e-12)
        assert fit.Gamma_m == pytest.approx(G, rel=1e-12)
        assert fit.b_m == pytest.approx(b, rel=1e-12)
        assert fit.tau_peak == pytest.approx(tau, rel=1e-12)


def test_rep5_valley_table_regression(rep_band):
    cell = representative_cell()
    for p, (E, G) in REP5_VALLEYS.items():
        fit = fit_valley(cell, OUT, 5, p, band=rep_band)
        assert fit.E_p == pytest.approx(E, rel=1e-12)
        assert fit.Gamma_p == pytest.approx(G, rel=1e-12)


def test_valleys_wider_than_adjacent_peaks(rep_band):
    cell = representative_cell()
    for p in (1, 2, 3):
        v = fit_valley(cell, OUT, 5, p, band=rep_band)
        left = fit_peak(cell, OUT, 5, p, band=rep_band)
        right = fit_peak(cell, OUT, 5, p + 1, band=rep_band)
        assert v.Gamma_p > left.Gamma_m
        assert v.Gamma_p > right.Gamma_m


def test_valley_shape_parameters_scale_like_1_over_N(play_band):
    for N in (6, 9, 12):
        for p in range(1, N - 1):
            fit = fit_valley(PLAY_MODEL, None, N, p, band=play_band)
            assert abs(fit.C_p) < 10.0 / N
            assert abs(fit.D_p) < 10.0 / N


def test_valley_floor_equals_lower_envelope(rep_band):
    cell = representative_cell()
    for p in range(5):
        fit = fit_valley(cell, OUT, 5, p, band=rep_band)
        _, env_min, _ = envelopes(cell, OUT, 5, fit.E_p, band=rep_band)
        assert fit.tau_valley == pytest.approx(env_min, rel=1e-12)
        assert fit.tau(fit.E_p) == pytest.approx(fit.tau_valley, rel=1e-15)


def test_exact_transmission_near_half_at_predicted_half_width(rep_band):
    cell = representative_cell()
    model = as_model(cell, OUT)
    fit = fit_peak(cell, OUT, 5, 1, band=rep_band)
    for E in (fit.E_m - 0.5 * fit.Gamma_m, fit.E_m + 0.5 * fit.Gamma_m):
        T = 1.0 / abs(model.matrix(E).power(5).m11) ** 2
        assert T == pytest.approx(0.5, rel=0.05)


def test_phase_time_argmax_shift_matches_asymmetry_sign(rep_band):
    cell = representative_cell()
    fit = fit_peak(cell, OUT, 5, 1, band=rep_band)
    E = np.linspace(fit.E_m - 0.5 * fit.Gamma_m, fit.E_m + 0.5 * fit.Gamma_m, 801)
    tau = np.array([phase_time(cell, OUT, 5, float(e), band=rep_band) for e in E])
    shift = float(E[np.argmax(tau)]) - fit.E_m
    assert abs(shift) < 0.25 * fit.Gamma_m
    assert math.copysign(1.0, shift) == math.copysign(1.0, fit.b_m)


def test_connector_level_between_windows(rep_band):
    cell = representative_cell()
    curves = approx_curves(cell, OUT, 5, rep_band, EnergyGrid.linear(53.0, 53.1, 5))
    # this stretch lies between the first peak window and the p=1 valley
    # window, so both flanking transmission edge values are the BW 1/5
    assert curves.t2 == pytest.approx(0.2, rel=1e-12)
    assert np.all(np.isfinite(curves.tau_ph))


def test_approx_curves_hit_extrema_values(rep_band):
    cell = representative_cell()
    pk = fit_peak(cell, OUT, 5, 2, band=rep_band)
    vl = fit_valley(cell, OUT, 5, 2, band=rep_band)
    grid = EnergyGrid.linear(pk.E_m, vl.E_p, 2)  # exactly the two extrema
    curves = approx_curves(cell, OUT, 5, rep_band, grid)
    assert curves.t2[0] == pytest.approx(1.0, abs=1e-12)
    assert curves.tau_ph[0] == pytest.approx(pk.tau_peak, rel=1e-12)
    assert curves.tau_ph[1] == pytest.approx(vl.tau_valley, rel=1e-12)
    assert len(curves.peaks) == 4 and len(curves.valleys) == 5


def test_window_edges_take_the_window_shape(rep_band):
    # Windows are closed: E_m +- Gamma_m takes the peak shapes and
    # E_p +- Gamma_p/2 the valley shape; between them the bridge runs
    # straight from one edge value to the other, so one ulp outside a
    # window it continues the window's value.  For N = 5 no rep5 windows
    # overlap.
    cell = representative_cell()
    pk = fit_peak(cell, OUT, 5, 2, band=rep_band)
    vl = fit_valley(cell, OUT, 5, 2, band=rep_band)
    pk_lo, pk_hi = pk.E_m - pk.Gamma_m, pk.E_m + pk.Gamma_m
    vl_lo, vl_hi = vl.E_p - 0.5 * vl.Gamma_p, vl.E_p + 0.5 * vl.Gamma_p
    assert pk_hi < vl_lo
    mid = 0.5 * (pk_hi + vl_lo)
    grid = EnergyGrid(np.array([pk_lo, pk_hi, np.nextafter(pk_hi, math.inf), mid,
                                np.nextafter(vl_lo, -math.inf), vl_lo, vl_hi]))
    curves = approx_curves(cell, OUT, 5, rep_band, grid)
    assert curves.t2[:2].tolist() == [pk.t2(pk_lo), pk.t2(pk_hi)]
    assert curves.tau_ph[:2].tolist() == [pk.tau(pk_lo), pk.tau(pk_hi)]
    assert curves.tau_ph[5:].tolist() == [vl.tau(vl_lo), vl.tau(vl_hi)]
    assert curves.tau_ph[3] == pytest.approx(0.5 * (pk.tau(pk_hi) + vl.tau(vl_lo)), rel=1e-12)
    assert curves.tau_ph[2] == pytest.approx(pk.tau(pk_hi), rel=1e-12)
    assert curves.tau_ph[4] == pytest.approx(vl.tau(vl_lo), rel=1e-12)
    assert curves.t2[2:] == pytest.approx(0.2, rel=1e-12)


@pytest.mark.parametrize("model, N", [("rep5", 5), ("play", 9)])
def test_bridge_is_continuous_at_every_window_edge(model, N, rep_band, play_band):
    """One ulp outside a window edge that no other window holds, the bridge
    carries on from the window's edge value; before, it jumped by hundreds
    of fs there (fig8 ``tau_approx_fs`` at rep5's first peak's upper edge,
    52.9531 meV: 1521.0 vs 930.8 fs)."""
    cell, band = ((as_model(representative_cell(), OUT), rep_band) if model == "rep5"
                  else (PLAY_MODEL, play_band))
    peaks, valleys = fit_extrema(cell, None, N, band)
    lo = [pk.E_m - pk.Gamma_m for pk in peaks] + [vl.E_p - 0.5 * vl.Gamma_p for vl in valleys]
    hi = [pk.E_m + pk.Gamma_m for pk in peaks] + [vl.E_p + 0.5 * vl.Gamma_p for vl in valleys]
    pairs = sorted((e, np.nextafter(e, side)) for ends, side in ((lo, -math.inf), (hi, math.inf))
                   for e in ends)
    pairs = [(e, o) for e, o in pairs if band.lower < o < band.upper
             and not any(a <= o <= b for a, b in zip(lo, hi))]
    assert pairs
    curves = approx_curves(cell, None, N, band, EnergyGrid(np.unique(np.ravel(pairs))))
    tau = dict(zip(curves.energies.tolist(), curves.tau_ph.tolist()))
    for e, o in pairs:
        assert tau[o] == pytest.approx(tau[e], rel=1e-9), e


def test_argument_validation(rep_band, play_band):
    cell = representative_cell()
    with pytest.raises(ValidationError):
        locate_extrema(cell, OUT, 1, band=rep_band)
    with pytest.raises(TypeError):
        locate_extrema(cell, OUT, 5)
    with pytest.raises(ValidationError):
        fit_peak(cell, OUT, 5, 0, band=rep_band)
    with pytest.raises(ValidationError):
        fit_peak(cell, OUT, 5, 5, band=rep_band)
    with pytest.raises(ValidationError):
        fit_valley(cell, OUT, 5, 5, band=rep_band)
    with pytest.raises(ValidationError):
        fit_valley(PLAY_MODEL, None, 9, -1, band=play_band)
    with pytest.raises(TypeError):
        approx_curves(cell, OUT, 5, rep_band)
