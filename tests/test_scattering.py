"""Stationary scattering: origin reference, lifetime matrix, dwell decomposition.

The wavefunction oracle solves the full interface-matching problem as one
dense linear system (2L + 2 coefficient unknowns), sharing no code with the
back-propagation reconstruction it checks.  The dwell decomposition is
validated against the quadrature column, whose only input is |psi|^2.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import sltime.scattering
from conftest import stacks
from sltime.cli import main
from sltime.errors import NumericError, ValidationError
from sltime.medium import (
    CONSTANTS, CellSpec, EnergyGrid, Layer, StackSpec, load_stack, representative_stack,
)
from sltime.scattering import (
    _origin_jet,
    dwell_time,
    interior_wavefunction,
    probability_current,
    smith_matrix,
)
from sltime.tmatrix import Jet, amplitudes, stack_matrix


def brute_scattering_state(stack, E, consts=CONSTANTS):
    """Solve for all layer coefficients at once: unit incidence from the left.

    Returns (r, t, psi) where psi(x) evaluates the *unnormalized* state
    (incident amplitude 1, zero phase at the left face).
    """
    layers = stack.segments()
    L = len(layers)
    edges = -0.5 * stack.width + np.concatenate(
        [[0.0], np.cumsum([l.width for l in layers])]
    )
    k = math.sqrt(E * stack.outside.mass_ratio / consts.hbar2_over_2m0)
    q = [cmath.sqrt((E - l.potential) * l.mass_ratio / consts.hbar2_over_2m0) for l in layers]
    m_out = stack.outside.mass_ratio

    # unknowns: [r, A_0, B_0, ..., A_{L-1}, B_{L-1}, t]
    n = 2 * L + 2
    A = np.zeros((n, n), dtype=complex)
    rhs = np.zeros(n, dtype=complex)

    def layer_psi(j, dx):  # rows for (A_j, B_j) at offset dx into layer j
        e = cmath.exp(1j * q[j] * dx)
        return (e, 1.0 / e), (1j * q[j] * e / layers[j].mass_ratio,
                              -1j * q[j] / (e * layers[j].mass_ratio))

    row = 0
    # left face: 1 + r = psi_0(0);  (ik/m)(1 - r) = psi_0'(0)/m_0
    (pA, pB), (sA, sB) = layer_psi(0, 0.0)
    A[row, 0] = -1.0; A[row, 1] = pA; A[row, 2] = pB; rhs[row] = 1.0; row += 1
    A[row, 0] = 1j * k / m_out; A[row, 1] = sA; A[row, 2] = sB; rhs[row] = 1j * k / m_out; row += 1
    for j in range(L - 1):
        (pA, pB), (sA, sB) = layer_psi(j, layers[j].width)
        (qA, qB), (tA, tB) = layer_psi(j + 1, 0.0)
        A[row, 1 + 2 * j] = pA; A[row, 2 + 2 * j] = pB
        A[row, 3 + 2 * j] = -qA; A[row, 4 + 2 * j] = -qB; row += 1
        A[row, 1 + 2 * j] = sA; A[row, 2 + 2 * j] = sB
        A[row, 3 + 2 * j] = -tA; A[row, 4 + 2 * j] = -tB; row += 1
    # right face: psi_{L-1}(w) = t;  slope continuity into the lead
    (pA, pB), (sA, sB) = layer_psi(L - 1, layers[L - 1].width)
    A[row, 2 * L - 1] = pA; A[row, 2 * L] = pB; A[row, 2 * L + 1] = -1.0; row += 1
    A[row, 2 * L - 1] = sA; A[row, 2 * L] = sB; A[row, 2 * L + 1] = -1j * k / m_out

    x = np.linalg.solve(A, rhs)
    r, t = x[0], x[-1]

    def psi(pos):
        if pos <= edges[0]:
            return cmath.exp(1j * k * (pos - edges[0])) + r * cmath.exp(-1j * k * (pos - edges[0]))
        if pos >= edges[-1]:
            return t * cmath.exp(1j * k * (pos - edges[-1]))
        j = min(int(np.searchsorted(edges, pos, side="right")) - 1, L - 1)
        dx = pos - edges[j]
        return x[1 + 2 * j] * cmath.exp(1j * q[j] * dx) + x[2 + 2 * j] * cmath.exp(-1j * q[j] * dx)

    return r, t, psi


@pytest.mark.parametrize("E", [45.0, 52.809940510590266, 58.5, 63.0])
def test_wavefunction_against_global_solve(E):
    stack = representative_stack()
    r, t, psi = brute_scattering_state(stack, E)
    amp = amplitudes(stack_matrix(E, stack))
    assert amp.r == pytest.approx(r, abs=1e-10)
    assert amp.t == pytest.approx(t, abs=1e-10 * max(1.0, abs(t)))

    k = math.sqrt(E * 0.067 / CONSTANTS.hbar2_over_2m0)
    v = CONSTANTS.velocity(k, 0.067)
    xs = np.linspace(-0.5 * stack.width - 6.0, 0.5 * stack.width + 6.0, 67)
    got = interior_wavefunction(stack, E, xs)
    want = np.array([psi(float(x)) for x in xs]) / math.sqrt(v)
    scale = np.abs(want).max()
    assert np.abs(got - want).max() < 1e-9 * scale


def test_origin_shift_keeps_moduli():
    stack = representative_stack()
    amp = amplitudes(stack_matrix(58.5, stack))
    _, t, r, _, _, _, _ = _origin_jet(stack, 58.5, CONSTANTS)
    assert abs(t) == pytest.approx(abs(amp.t), rel=1e-15)
    assert abs(r) == pytest.approx(abs(amp.r), rel=1e-15)


@given(stacks(), st.floats(20.0, 250.0))
def test_scattering_matrix_unitary_and_reciprocal(stack, E):
    _, t, r, _, _, _, _ = _origin_jet(stack, E, CONSTANTS)
    assume(abs(t) > 1e-120)  # opaque stacks underflow the channel
    r_bar = -r.conjugate() * t / t.conjugate()
    s = np.array([[r, t], [t, r_bar]])
    assert np.abs(s.conj().T @ s - np.eye(2)).max() < 1e-10
    assert abs(r_bar) == pytest.approx(abs(r), rel=1e-12, abs=1e-13)


def _assert_array_matches_scalars(stack, E):
    """Element i of the array calls equals the scalar calls at E[i], to
    1e-11 of max(1 fs, max |Q_ij|) there; where a per-energy check fails
    at one energy, the array call fails too."""
    try:
        scalars = [(smith_matrix(stack, float(e)), dwell_time(stack, float(e))) for e in E]
    except NumericError:
        with pytest.raises(NumericError):
            smith_matrix(stack, E)
            dwell_time(stack, E)
        return
    q = smith_matrix(stack, E)
    d = dwell_time(stack, E)
    for i, (qs, ds) in enumerate(scalars):
        assert type(qs.tau11) is float and type(qs.tau12) is complex
        assert type(ds.tau_numeric) is float and type(ds.dwell_time) is float
        tol = 1e-11 * max(1.0, abs(qs.tau11), abs(qs.tau22), abs(qs.tau12))
        for got, want in [(q.tau11[i], qs.tau11), (q.tau22[i], qs.tau22),
                          (q.tau12[i], qs.tau12),
                          (d.tau_dwell_delay[i], ds.tau_dwell_delay),
                          (d.oscillatory_term[i], ds.oscillatory_term),
                          (d.free_passage[i], ds.free_passage),
                          (d.uniform_passage[i], ds.uniform_passage),
                          (d.tau_numeric[i], ds.tau_numeric)]:
            assert abs(got - want) <= tol


@pytest.mark.filterwarnings("ignore:Smith matrix for a spatially asymmetric")
@given(stacks(), st.lists(st.floats(20.0, 250.0), min_size=1, max_size=3))
def test_scattering_array_calls_equal_scalar_calls(stack, energies):
    E = np.array(energies)
    _, t, _, _, _, _, _ = _origin_jet(stack, E, CONSTANTS)
    assume(np.abs(t).min() > 1e-6)  # an opaque stack leaves nothing to compare
    _assert_array_matches_scalars(stack, E)


def test_scattering_array_calls_equal_scalar_calls_on_rep5(rep_band):
    stack = load_stack("stacks/rep5.json")
    E = EnergyGrid.linear(*rep_band.interior(1e-3), 24).samples
    _assert_array_matches_scalars(stack, E)
    with pytest.raises(ValidationError):
        dwell_time(stack, E, -10.0, 40.0)


def test_scattering_dwell_command_makes_two_stack_matrix_calls(monkeypatch, tmp_path):
    """One grid, one kernel call each for the dwell time and the Smith matrix."""
    calls = []
    real = sltime.scattering.stack_matrix

    def counting(E, *args, **kwargs):
        calls.append(isinstance(E, Jet) and np.ndim(E.v) == 1)
        return real(E, *args, **kwargs)

    monkeypatch.setattr(sltime.scattering, "stack_matrix", counting)
    out = tmp_path / "dwell.csv"
    assert main(["dwell", "--stack", "stacks/rep5.json", "--count", "40", "-o", str(out)]) == 0
    assert calls == [True, True]
    assert len(out.read_text().splitlines()) == 3 + 40


def test_smith_matrix_symmetric_stack_structure():
    stack = representative_stack()
    for E in (57.0, 58.5, 61.5):
        q = smith_matrix(stack, E)
        scale = max(1.0, abs(q.tau11))
        assert q.tau11 == pytest.approx(q.tau22, abs=1e-7 * scale)
        assert abs(q.tau12.imag) < 1e-7 * scale


def test_smith_off_diagonal_is_reflectivity_slope():
    """For a mirror-symmetric stack the eigenchannels are the parity states,
    which forces tau12 = eps * hbar d|r|/dE / |t| with eps = sign Im(r/t)."""
    stack = representative_stack()
    for E in (57.0, 59.0, 61.5):
        q = smith_matrix(stack, E)
        h = 1e-3

        def r_abs(e):
            return abs(amplitudes(stack_matrix(e, stack)).r)

        slope = (r_abs(E - 2 * h) - 8 * r_abs(E - h) + 8 * r_abs(E + h) - r_abs(E + 2 * h)) / (12 * h)
        amp = amplitudes(stack_matrix(E, stack))
        eps = math.copysign(1.0, (amp.r / amp.t).imag)
        want = eps * CONSTANTS.hbar * slope / abs(amp.t)
        assert q.tau12.real == pytest.approx(want, rel=1e-5)


#: A six-cell stack with a 0.082 meV wide first band: 3.005 nm half wells
#: around a 10.147 nm, 290 meV barrier, between rep5's leads, and two
#: energies on its sharpest resonances (a 45 ps delay at the first).  A
#: fixed 1e-3 meV stencil step was too coarse here: Q failed its
#: Hermiticity check and dwell's closed form read -1372 fs against its
#: own quadrature's 44831 fs.
_HALF_WELL = Layer(3.005172100438002, 0.0, 0.067)
NARROW_BAND = StackSpec(
    core=CellSpec((_HALF_WELL, Layer(10.147490367949276, 290.0, 0.0919), _HALF_WELL),
                  symmetric=True),
    replicas=6,
    outside=Layer(9.5, 0.0, 0.067),
)


@pytest.mark.parametrize("E", [64.4633365217519, 64.43085692583227])
def test_narrow_band_smith_and_dwell_agree_with_their_checks(E):
    q = smith_matrix(NARROW_BAND, E)
    assert q.tau11 == pytest.approx(q.tau22, rel=1e-7)
    d = dwell_time(NARROW_BAND, E)
    assert d.dwell_time == pytest.approx(d.tau_numeric, rel=1e-5)
    assert d.tau_dwell_delay == pytest.approx(q.tau11, rel=1e-7)


def test_smith_asymmetric_stack_warns():
    lopsided = StackSpec(
        core=CellSpec((Layer(2.0, 150.0, 0.09), Layer(4.0, 0.0, 0.067))),
        replicas=3,
        outside=Layer(9.5, 0.0, 0.067),
    )
    with pytest.warns(UserWarning, match="asymmetric"):
        smith_matrix(lopsided, 70.0)


def test_free_stack_is_featureless():
    free = StackSpec(
        core=CellSpec((Layer(9.5, 0.0, 0.067),), symmetric=True),
        replicas=5,
        outside=Layer(9.5, 0.0, 0.067),
    )
    E = 58.5
    k = math.sqrt(E * 0.067 / CONSTANTS.hbar2_over_2m0)
    v = CONSTANTS.velocity(k, 0.067)
    xs = np.linspace(-30.0, 30.0, 41)
    psi = interior_wavefunction(free, E, xs)
    assert np.abs(psi) ** 2 * v == pytest.approx(np.ones(len(xs)), rel=1e-12)
    assert probability_current(free, E, xs) == pytest.approx(np.ones(len(xs)), rel=1e-12)
    d = dwell_time(free, E)
    assert d.oscillatory_term == pytest.approx(0.0, abs=1e-12)
    # the residual here is the roundoff of the exact derivatives
    assert d.tau_dwell_delay == pytest.approx(0.0, abs=1e-8)
    assert d.dwell_time == pytest.approx(d.uniform_passage, rel=1e-10)
    assert d.delay == pytest.approx(0.0, abs=1e-8)


def test_current_is_flat_and_equals_transmission():
    stack = representative_stack()
    E = 58.5
    T = amplitudes(stack_matrix(E, stack)).T
    xs = np.linspace(-35.0, 35.0, 71)
    j = probability_current(stack, E, xs)
    assert j == pytest.approx(np.full(len(xs), T), rel=1e-9)


def test_dwell_closed_form_matches_density_integral():
    stack = representative_stack()
    rng = np.random.default_rng(7)
    half_w = 0.5 * stack.width
    for _ in range(6):
        E = float(rng.uniform(52.5, 64.5))
        xl = -half_w - float(rng.uniform(0.5, 30.0))
        xr = half_w + float(rng.uniform(0.5, 30.0))
        d = dwell_time(stack, E, xl, xr)
        assert d.tau_numeric == pytest.approx(d.dwell_time, rel=1e-6, abs=1e-4)


def test_dwell_smooth_term_equals_smith_delay():
    stack = representative_stack()
    for E in (55.0, 58.5, 62.0):
        d = dwell_time(stack, E)
        q = smith_matrix(stack, E)
        assert d.tau_dwell_delay == pytest.approx(q.tau11, rel=1e-6)


def test_oscillatory_term_recovered_from_density_integral():
    """Vary only the left window edge: the quadrature minus the smooth and
    classical parts must trace the predicted standing-wave fringe."""
    stack = representative_stack()
    E = 57.0
    amp_origin = amplitudes(stack_matrix(E, stack))
    k = math.sqrt(E * 0.067 / CONSTANTS.hbar2_over_2m0)
    xr = 0.5 * stack.width + 11.0
    xls = np.linspace(-0.5 * stack.width - 19.0, -0.5 * stack.width - 3.0, 21)
    resid = []
    for xl in xls:
        d = dwell_time(stack, E, float(xl), xr)
        resid.append(d.tau_numeric - d.tau_dwell_delay - d.free_passage)
    basis = np.column_stack([np.sin(2 * k * xls), np.cos(2 * k * xls)])
    coef, *_ = np.linalg.lstsq(basis, np.asarray(resid), rcond=None)
    measured_amp = float(np.hypot(*coef))
    expect = CONSTANTS.hbar * abs(amp_origin.r) / (2.0 * E)
    assert measured_amp == pytest.approx(expect, rel=1e-4)


def test_resonant_buildup_and_gap_suppression():
    stack = representative_stack()
    k_res = math.sqrt(52.809940510590266 * 0.067 / CONSTANTS.hbar2_over_2m0)
    v_res = CONSTANTS.velocity(k_res, 0.067)
    xs = np.linspace(-0.5 * stack.width, 0.5 * stack.width, 401)
    on = np.abs(interior_wavefunction(stack, 52.809940510590266, xs)) ** 2 * v_res
    assert on.max() > 2.0  # coherent buildup at the sharpest resonance

    gap = np.abs(interior_wavefunction(stack, 45.0, xs)) ** 2
    left_lead = np.abs(interior_wavefunction(stack, 45.0, np.linspace(-40, -25, 31))) ** 2
    assert amplitudes(stack_matrix(45.0, stack)).T < 1e-4
    assert gap[-5:].max() < 1e-3 * left_lead.max()


def test_dwell_window_must_enclose_stack():
    stack = representative_stack()
    with pytest.raises(ValidationError):
        dwell_time(stack, 58.5, -10.0, 40.0)
    with pytest.raises(ValidationError):
        dwell_time(stack, 58.5, -40.0, 20.0)
