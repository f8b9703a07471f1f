"""Stationary scattering: origin reference, lifetime matrix, dwell decomposition.

The wavefunction oracle solves the full interface-matching problem as one
dense linear system (2L + 2 coefficient unknowns), sharing no code with the
transfer matrix or the dwell time's backward pass.  It checks t and r, and
every sampled psi, current and density here is the oracle's.  The dwell
decomposition is validated against the density-integral column, and that
integral in turn against a dense composite Simpson rule over the oracle's
|psi|^2.  The Smith matrix of asymmetric stacks is checked against its
mirror image and against central differences of S built from plain (not
jet) amplitudes.
"""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import sltime.scattering
from conftest import stacks
from sltime.cli import main
from sltime.errors import NumericError, ValidationError
from sltime.medium import (
    CONSTANTS, CellSpec, EnergyGrid, Layer, StackSpec, load_stack, representative_stack,
    save_stack,
)
from sltime.scattering import _origin_jet, dwell_time, smith_matrix
from sltime.tmatrix import Jet, amplitudes, stack_matrix


def _lead_wave(stack, E):
    """The lead wavenumber and velocity at E."""
    k = math.sqrt(E * stack.outside.mass_ratio / CONSTANTS.hbar2_over_2m0)
    return k, CONSTANTS.velocity(k, stack.outside.mass_ratio)


def _psi(stack, E, xs):
    """psi at the positions xs, flux-normalized (the oracle's state over
    sqrt(v)), for left incidence."""
    _, _, state = brute_scattering_state(stack, E)
    return state(xs)[0] / math.sqrt(_lead_wave(stack, E)[1])


def _current(stack, E, xs):
    """Probability current at the positions xs for unit incident flux: the
    incident e^{ikx}/sqrt(v) carries k/(m v) in these units."""
    _, _, state = brute_scattering_state(stack, E)
    k, v = _lead_wave(stack, E)
    psi, slope = (f / math.sqrt(v) for f in state(xs))
    return (psi.conjugate() * slope).imag * v * stack.outside.mass_ratio / k


def brute_scattering_state(stack, E):
    """Solve for all layer coefficients at once: unit incidence from the left.

    Returns (r, t, state) where state(xs) evaluates (psi, psi'/m*) of the
    *unnormalized* state (incident amplitude 1, zero phase at the left face)
    at every position of the array xs.
    """
    layers = stack.segments()
    L = len(layers)
    edges = -0.5 * stack.width + np.concatenate(
        [[0.0], np.cumsum([l.width for l in layers])]
    )
    k = math.sqrt(E * stack.outside.mass_ratio / CONSTANTS.hbar2_over_2m0)
    q = [cmath.sqrt((E - l.potential) * l.mass_ratio / CONSTANTS.hbar2_over_2m0) for l in layers]
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
    q, masses = np.array(q), np.array([l.mass_ratio for l in layers])

    def state(pos):
        pos = np.asarray(pos, dtype=float)
        psi, slope = np.empty(pos.shape, dtype=complex), np.empty(pos.shape, dtype=complex)
        left, right = pos <= edges[0], pos >= edges[-1]
        inner = ~(left | right)
        fwd = np.exp(1j * k * (pos[left] - edges[0]))
        psi[left] = fwd + r / fwd
        slope[left] = 1j * k * (fwd - r / fwd) / m_out
        psi[right] = t * np.exp(1j * k * (pos[right] - edges[-1]))
        slope[right] = 1j * k * psi[right] / m_out
        j = np.searchsorted(edges, pos[inner], side="right") - 1
        fwd = x[1 + 2 * j] * np.exp(1j * q[j] * (pos[inner] - edges[j]))
        bwd = x[2 + 2 * j] * np.exp(-1j * q[j] * (pos[inner] - edges[j]))
        psi[inner] = fwd + bwd
        slope[inner] = 1j * q[j] * (fwd - bwd) / masses[j]
        return psi, slope

    return r, t, state


@pytest.mark.parametrize("E", [45.0, 52.809940510590266, 58.5, 63.0])
def test_wavefunction_against_global_solve(E):
    stack = representative_stack(5)
    r, t, _ = brute_scattering_state(stack, E)
    amp = amplitudes(stack_matrix(E, stack))
    assert amp.r == pytest.approx(r, abs=1e-10)
    assert amp.t == pytest.approx(t, abs=1e-10 * max(1.0, abs(t)))


def test_origin_shift_keeps_moduli():
    stack = representative_stack(5)
    amp = amplitudes(stack_matrix(58.5, stack))
    _, t, r, _, _, _, _ = _origin_jet(stack, 58.5)
    assert abs(t) == pytest.approx(abs(amp.t), rel=1e-15)
    assert abs(r) == pytest.approx(abs(amp.r), rel=1e-15)


@given(stacks(), st.floats(20.0, 250.0))
def test_scattering_matrix_unitary_and_reciprocal(stack, E):
    _, t, r, _, _, _, _ = _origin_jet(stack, E)
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
                          (d.tau_numeric[i], ds.tau_numeric)]:
            assert abs(got - want) <= tol


@given(stacks(), st.lists(st.floats(20.0, 250.0), min_size=1, max_size=3))
def test_scattering_array_calls_equal_scalar_calls(stack, energies):
    E = np.array(energies)
    _, t, _, _, _, _, _ = _origin_jet(stack, E)
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


def _count_density_integrals(monkeypatch, scale=None):
    """Record the number of energies of every ``_density_integral`` call;
    with ``scale``, multiply each result by it."""
    calls = []
    real = sltime.scattering._density_integral

    def counting(stack, E, *args):
        calls.append(E.size)
        got = real(stack, E, *args)
        return got if scale is None else got * scale

    monkeypatch.setattr(sltime.scattering, "_density_integral", counting)
    return calls


def test_dwell_grid_refined_together_matches_scalar_calls(monkeypatch, tmp_path):
    """README's dwell command integrates the densities of all 40 energies
    in one call, and each energy's tau_numeric is exactly what a scalar
    call gives."""
    calls = _count_density_integrals(monkeypatch)
    out = tmp_path / "dwell.csv"
    assert main(["dwell", "--stack", "stacks/rep5.json", "--emin", "56", "--emax", "60",
                 "--count", "40", "-o", str(out)]) == 0
    assert calls == [40]
    monkeypatch.undo()
    rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
    stack = load_stack("stacks/rep5.json")
    assert len(rows) == 40
    for row in rows:
        assert dwell_time(stack, float(row[0])).tau_numeric == float(row[3])


def test_dwell_failure_together_names_the_energy(monkeypatch, tmp_path, capsys):
    """Only the second energy's density integral is off; the command exits
    4 and names that energy."""
    _count_density_integrals(monkeypatch, np.array([1.0, 1.5]))
    code = main(["dwell", "--stack", "stacks/rep5.json", "--emin", "57", "--emax", "58.5",
                 "--count", "2", "-o", str(tmp_path / "dwell.csv")])
    assert code == 4
    assert "disagree at E = 58.5 meV" in capsys.readouterr().err


def test_dwell_gate_refined_together_names_the_first_failing_energy(monkeypatch):
    """The closed-form vs density-integral gate fires at the first energy
    of the grid whose density integral is off, not at a later one."""
    _count_density_integrals(monkeypatch, np.array([1.0, 1.0, 2.0, 2.0]))
    with pytest.raises(NumericError, match=r"disagree at E = 58\.0 meV"):
        dwell_time(load_stack("stacks/rep5.json"), np.array([57.0, 57.5, 58.0, 58.5]))


@pytest.mark.parametrize("scale, passes", [(1.0099, True), (1.0101, False), (math.nan, False)])
def test_dwell_gate_is_unchanged(monkeypatch, scale, passes):
    """The gate passes a density integral off by just under 1e-2 of the
    closed form and fails one off by just over it, or one that is NaN."""
    _count_density_integrals(monkeypatch, scale)
    stack = load_stack("stacks/rep5.json")
    if passes:
        dwell_time(stack, 58.5)
    else:
        with pytest.raises(NumericError, match=r"disagree at E = 58\.5 meV"):
            dwell_time(stack, 58.5)


@pytest.mark.parametrize("scale, passes", [(0.99, True), (1.01, False), (math.nan, False)])
def test_hermiticity_gate_keeps_its_bound(monkeypatch, scale, passes):
    """Q may miss Hermiticity by up to 1e-3 of its largest entry: a defect
    of 0.99e-3 of it passes, one of 1.01e-3 (or NaN) fails, and the
    failure names the first such energy.  Adding eps r to dr/dE adds
    -i hbar eps |r|^2 to q11 and q22 and nothing to q12 - conj(q21), since
    conj(t) r_bar = -conj(r) t: a defect of 2 hbar eps |r|^2."""
    stack = load_stack("stacks/rep5.json")
    E = np.array([57.0, 58.5, 61.5])
    q = smith_matrix(stack, E)
    largest = np.maximum.reduce([np.ones(3), np.abs(q.tau11), np.abs(q.tau22), np.abs(q.tau12)])
    real = sltime.scattering._origin_jet

    def skewed(stack, E):
        jet, t, r, dt, dr, k, v = real(stack, E)
        defect = np.array([0.0, scale, scale]) * 1e-3 * largest
        eps = defect / (2.0 * CONSTANTS.hbar * np.abs(r) ** 2)
        return jet, t, r, dt, dr + eps * r, k, v

    monkeypatch.setattr(sltime.scattering, "_origin_jet", skewed)
    if passes:
        smith_matrix(stack, E)
    else:
        with pytest.raises(NumericError, match=r"not Hermitian .* at E = 58\.5 meV"):
            smith_matrix(stack, E)


def test_smith_matrix_symmetric_stack_structure():
    stack = representative_stack(5)
    for E in (57.0, 58.5, 61.5):
        q = smith_matrix(stack, E)
        scale = max(1.0, abs(q.tau11))
        assert q.tau11 == pytest.approx(q.tau22, abs=1e-7 * scale)
        assert abs(q.tau12.imag) < 1e-7 * scale


def test_smith_off_diagonal_is_reflectivity_slope():
    """For a mirror-symmetric stack the eigenchannels are the parity states,
    which forces tau12 = eps * hbar d|r|/dE / |t| with eps = sign Im(r/t)."""
    stack = representative_stack(5)
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


#: Three barrier/well cells: an asymmetric stack.
LOPSIDED = StackSpec(
    core=CellSpec((Layer(2.0, 150.0, 0.09), Layer(4.0, 0.0, 0.067))),
    replicas=3,
    outside=Layer(9.5, 0.0, 0.067),
)


def _mirror(stack):
    """The stack reflected about the origin: end cells swapped, every layer
    order reversed."""
    flip = lambda cell: None if cell is None else CellSpec(cell.layers[::-1])
    return StackSpec(core=flip(stack.core), replicas=stack.replicas, outside=stack.outside,
                     left_arc=flip(stack.right_arc), right_arc=flip(stack.left_arc))


def _s_matrix(stack, mirror, E):
    """S = ((r, t'), (t, r')), shape (2, 2, energies), from plain stack-matrix
    values re-referenced to the origin.  The right-incidence column is the
    mirror image's left-incidence (t, r), with no unitarity or reciprocity
    assumed."""
    lead = stack.outside
    k = np.sqrt((E - lead.potential) * lead.mass_ratio / CONSTANTS.hbar2_over_2m0)
    shift = np.exp(-1j * k * stack.width)
    left, right = (amplitudes(stack_matrix(E, s)) for s in (stack, mirror))
    return np.array([[left.r, right.t], [left.t, right.r]]) * shift


def test_smith_asymmetric_stack_matches_mirror_and_differences(tmp_path, capsys):
    """On ``LOPSIDED`` over 20-250 meV and on rep5 with its designed ARC on
    the left only over 52-65 meV: tau22 is the mirror image's tau11 (to
    1e-11), and every entry of Q matches -i hbar S^dagger (S(E + h) -
    S(E - h)) / 2h at h = 1e-4 meV to 1e-5 of max(|Q|, 1 fs).  No warning
    is raised, and ``sltime dwell`` on ``LOPSIDED`` writes nothing to stderr."""
    one_arc = dataclasses.replace(load_stack("stacks/rep5_arc.json"), right_arc=None)
    h = 1e-4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stack, E in [(LOPSIDED, np.linspace(20.0, 250.0, 47)),
                         (one_arc, np.linspace(52.0, 65.0, 53))]:
            mirror = _mirror(stack)
            q, qm = smith_matrix(stack, E), smith_matrix(mirror, E)
            assert (np.abs(q.tau22 - qm.tau11) <= 1e-11 * np.abs(q.tau22)).all()
            s = _s_matrix(stack, mirror, E)
            ds = (_s_matrix(stack, mirror, E + h) - _s_matrix(stack, mirror, E - h)) / (2 * h)
            fd = -1j * CONSTANTS.hbar * np.einsum("jie,jke->ike", s.conj(), ds)
            got = np.array([[q.tau11, q.tau12], [q.tau12.conjugate(), q.tau22]])
            scale = np.maximum(np.abs(got).max(axis=(0, 1)), 1.0)
            assert (np.abs(got - fd) <= 1e-5 * scale).all()
        save_stack(LOPSIDED, tmp_path / "lopsided.json")
        assert main(["dwell", "--stack", str(tmp_path / "lopsided.json"), "--emin", "20",
                     "--emax", "250", "--count", "20", "-o", str(tmp_path / "dwell.csv")]) == 0
    assert capsys.readouterr().err == ""


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
    psi = _psi(free, E, xs)
    assert np.abs(psi) ** 2 * v == pytest.approx(np.ones(len(xs)), rel=1e-12)
    assert _current(free, E, xs) == pytest.approx(np.ones(len(xs)), rel=1e-12)
    d = dwell_time(free, E)
    assert d.oscillatory_term == pytest.approx(0.0, abs=1e-12)
    # the residual here is the roundoff of the exact derivatives
    assert d.tau_dwell_delay == pytest.approx(0.0, abs=1e-8)
    # nothing to delay: the window is crossed at the lead's group velocity
    assert d.dwell_time == pytest.approx((d.x_right - d.x_left) / v, rel=1e-10)
    assert d.dwell_time - (d.x_right - d.x_left) / v == pytest.approx(0.0, abs=1e-8)


def test_current_is_flat_and_equals_transmission():
    stack = representative_stack(5)
    E = 58.5
    T = amplitudes(stack_matrix(E, stack)).T
    xs = np.linspace(-35.0, 35.0, 71)
    j = _current(stack, E, xs)
    assert j == pytest.approx(np.full(len(xs), T), rel=1e-9)


def test_dwell_closed_form_matches_density_integral():
    stack = representative_stack(5)
    rng = np.random.default_rng(7)
    half_w = 0.5 * stack.width
    for _ in range(6):
        E = float(rng.uniform(52.5, 64.5))
        xl = -half_w - float(rng.uniform(0.5, 30.0))
        xr = half_w + float(rng.uniform(0.5, 30.0))
        d = dwell_time(stack, E, xl, xr)
        assert d.tau_numeric == pytest.approx(d.dwell_time, rel=1e-6, abs=1e-4)


def test_dwell_quadrature_resolves_a_fast_lead_fringe():
    """At 229 meV the 0.14-mass leads have a fringe period pi/k = 3.42 nm.
    A quadrature with 13.5 nm lead panels, sampled every 3.375 nm, aliased
    it and returned 51.0878 fs against the closed form's 52.4615 fs (a
    400001-point trapezoid of the same density gives 52.46145413 fs); the
    exact lead-piece integral has no samples to alias."""
    stack = StackSpec(core=CellSpec((Layer(6.0, 0.0, 0.125), Layer(7.5, 0.0, 0.125))),
                      replicas=1, outside=Layer(2.0, 0.0, 0.140625))
    d = dwell_time(stack, 229.0)
    assert d.dwell_time == pytest.approx(52.46145413, rel=1e-8)
    assert d.tau_numeric == pytest.approx(d.dwell_time, rel=1e-12)


def _simpson_density(stack, E, x_left, x_right, per=400):
    """Composite Simpson of the oracle's flux-normalized |psi|^2 over
    [x_left, x_right], 2 * per panels between every two interfaces, so no
    panel straddles a kink."""
    _, _, state = brute_scattering_state(stack, E)
    v = _lead_wave(stack, E)[1]
    knots = np.concatenate([[x_left], stack.interfaces(), [x_right]])
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        f = np.abs(state(np.linspace(lo, hi, 2 * per + 1))[0]) ** 2 / v
        total += (hi - lo) / (6 * per) * (f[0] + 4 * f[1:-1:2].sum() + 2 * f[2:-1:2].sum() + f[-1])
    return total


@pytest.mark.parametrize("name, E", [("rep5", 52.809940510590266), ("rep5", 58.5),
                                     ("rep5", 63.0), ("narrow", 64.4633365217519),
                                     ("narrow", 64.43085692583227)])
def test_dwell_density_integral_matches_dense_simpson(name, E):
    """The exact layer-by-layer integral against a dense composite Simpson
    rule of the oracle's density, which converges to it as h^4 (8e-10 with
    half the panels).  At the narrow band's resonances the gap stops at
    3e-11 and 2.1e-10: the latter is the backward pass's rounding at
    64.43 meV, where a 40-digit evaluation of the same integral lies 2.6e-10
    from ``tau_numeric`` and 3e-12 from this rule with twice the panels."""
    stack = load_stack("stacks/rep5.json") if name == "rep5" else NARROW_BAND
    d = dwell_time(stack, E)
    assert d.tau_numeric == pytest.approx(_simpson_density(stack, E, d.x_left, d.x_right),
                                          rel=1e-9)
    xl, xr = -0.5 * stack.width - 7.3, 0.5 * stack.width + 2.9
    d = dwell_time(stack, E, xl, xr)
    assert d.tau_numeric == pytest.approx(_simpson_density(stack, E, xl, xr), rel=1e-9)


#: (half well, barrier, N, E) of well/barrier/well stacks between rep5's
#: leads, each at a resonance where the dwell time is 3e5-8e6 fs.  An
#: adaptive quadrature with an absolute tolerance of 1e-6 fs, which float64
#: cannot reach at that size, raised on each, so ``sltime dwell`` exited 4
#: on valid input.
SHARP_RESONANCES = [
    (1.9564685045772578, 10.86296623967415, 4, 105.9267115886012),
    (2.9570872875985676, 10.724041938995665, 4, 65.7599344984302),
    (2.615488523022533, 11.69086701289255, 6, 76.50491685846478),
    (1.693742228776241, 11.28437694427405, 4, 122.27632821263882),
]


@pytest.mark.parametrize("half_well, barrier, n, E", SHARP_RESONANCES)
def test_dwell_at_sharp_resonances_returns(tmp_path, half_well, barrier, n, E):
    well = Layer(half_well, 0.0, 0.067)
    stack = StackSpec(core=CellSpec((well, Layer(barrier, 290.0, 0.0919), well),
                                    symmetric=True),
                      replicas=n, outside=Layer(9.5, 0.0, 0.067))
    d = dwell_time(stack, E)
    assert d.dwell_time > 3e5
    assert d.tau_numeric == pytest.approx(d.dwell_time, rel=1e-8)
    save_stack(stack, tmp_path / "stack.json")
    assert main(["dwell", "--stack", str(tmp_path / "stack.json"), "--emin", repr(E),
                 "--emax", repr(E + 0.003), "--count", "2",
                 "-o", str(tmp_path / "dwell.csv")]) == 0


def test_dwell_smooth_term_equals_smith_delay():
    stack = representative_stack(5)
    for E in (55.0, 58.5, 62.0):
        d = dwell_time(stack, E)
        q = smith_matrix(stack, E)
        assert d.tau_dwell_delay == pytest.approx(q.tau11, rel=1e-6)


def test_oscillatory_term_recovered_from_density_integral():
    """Vary only the left window edge: the density integral minus the
    smooth and classical parts must trace the predicted standing-wave
    fringe."""
    stack = representative_stack(5)
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
    stack = representative_stack(5)
    k_res = math.sqrt(52.809940510590266 * 0.067 / CONSTANTS.hbar2_over_2m0)
    v_res = CONSTANTS.velocity(k_res, 0.067)
    xs = np.linspace(-0.5 * stack.width, 0.5 * stack.width, 401)
    on = np.abs(_psi(stack, 52.809940510590266, xs)) ** 2 * v_res
    assert on.max() > 2.0  # coherent buildup at the sharpest resonance

    gap = np.abs(_psi(stack, 45.0, xs)) ** 2
    left_lead = np.abs(_psi(stack, 45.0, np.linspace(-40, -25, 31))) ** 2
    assert amplitudes(stack_matrix(45.0, stack)).T < 1e-4
    assert gap[-5:].max() < 1e-3 * left_lead.max()


def test_dwell_window_must_enclose_stack():
    stack = representative_stack(5)
    with pytest.raises(ValidationError):
        dwell_time(stack, 58.5, -10.0, 40.0)
    with pytest.raises(ValidationError):
        dwell_time(stack, 58.5, -40.0, 20.0)
