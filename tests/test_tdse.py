"""Wave-packet solver: exact discrete limits, conservation, and guards.

The solver is validated against cases with closed-form answers on the
*discrete* problem (box eigenstates are exact eigenvectors of the
tridiagonal H, free Gaussians follow the analytic dispersion law to
stepping error), so failures here indict the implementation, not the
discretization.
"""

import contextlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import sltime.tdse as tdse
from conftest import closed_grid, layers, stepping

from sltime.cli import _pick_band, _tdse_predictions, build_parser
from sltime.errors import (
    NoTransmissionError,
    NumericError,
    ValidationError,
)
from sltime.kard import as_model
from sltime.medium import CONSTANTS, CellSpec, Layer, StackSpec, load_stack, representative_stack
from sltime.tdse import (
    Grid1D,
    PacketRecord,
    WavePacket,
    _CyclicReduction,
    _arrival,
    _hamiltonian_diagonals,
    _material_arrays,
    evolve,
    free_reference,
    initial_state,
    measure_delay,
    packet_delay,
    plan_run,
    spectral_average,
    stationary_packet_delay,
)

ROOT = Path(__file__).resolve().parent.parent
LEAD = Layer(9.5, 0.0, 0.067)


def _lead_row(lead, dx):
    """(diagonal, off-diagonal) of H in a uniform lead: -c2/(m* dx^2) off the
    diagonal and V + 2 c2/(m* dx^2) on it."""
    c = CONSTANTS.hbar2_over_2m0 / (lead.mass_ratio * dx**2)
    return 2.0 * c + lead.potential, -c


def _uniform_stack(width=50.0):
    return StackSpec(core=CellSpec((Layer(width, 0.0, 0.067),)), replicas=1, outside=LEAD)


def test_free_gaussian_follows_dispersion_law():
    stack = _uniform_stack()
    grid = Grid1D(x_min=-500.0, x_max=500.0, dx=0.25, dt=1.0, n_steps=400)
    packet = WavePacket(x0=-150.0, E0=60.0, sigma_x=20.0)
    rec = evolve(stack, grid, packet, x_sep=-499.0)

    x = grid.x
    dens = np.abs(rec.psi_final) ** 2
    dens /= dens.sum() * grid.dx
    mean = grid.dx * float(np.sum(x * dens))
    sigma = math.sqrt(grid.dx * float(np.sum((x - mean) ** 2 * dens)))

    k0 = packet.k0(LEAD)
    v0 = CONSTANTS.velocity(k0, 0.067)
    t = grid.t_final
    alpha = CONSTANTS.hbar2_over_2m0 / 0.067
    sigma_t = packet.sigma_x * math.hypot(1.0, alpha * t / (CONSTANTS.hbar * packet.sigma_x**2))
    assert mean == pytest.approx(packet.x0 + v0 * t, rel=0.01)
    assert sigma == pytest.approx(sigma_t, rel=0.01)
    assert rec.norm_drift < 1e-10


def test_box_eigenstate_is_stationary():
    stack = _uniform_stack(10.0)
    grid = Grid1D(x_min=-25.0, x_max=25.0, dx=0.25, dt=2.0, n_steps=200)
    n_pts = grid.n_points
    # exact eigenvector of the discrete hard-wall Hamiltonian (ghost nodes
    # one cell outside each end), third mode
    j = np.arange(n_pts)
    psi0 = np.sin(3 * math.pi * (j + 1) / (n_pts + 1)).astype(complex)
    with stepping():  # in sine modes this one-mode state is stationary by construction
        rec = evolve(stack, grid, WavePacket(x0=0.0, E0=50.0, sigma_x=60.0), x_sep=0.0,
                     psi0=psi0, monitor_walls=False)
    want = np.abs(psi0) ** 2
    want /= want.sum() * grid.dx
    got = np.abs(rec.psi_final) ** 2
    assert np.abs(got - want).max() < 1e-8
    assert rec.norm_drift < 1e-10
    assert rec.energy_drift < 1e-10


@pytest.fixture
def stepped_runs(monkeypatch):
    """A list that grows by one for each ``evolve`` call that steps."""
    calls = []
    step = tdse._stepped_sums
    monkeypatch.setattr(tdse, "_stepped_sums", lambda *args: calls.append(1) or step(*args))
    return calls


@pytest.mark.parametrize("name, E0, extra_time, beyond_tol", [
    ("rep5_arc", 58.5, 0.0, 1e-12),
    ("rep5", 58.5, 0.0, 1e-12),
    # 6808 steps: the stepper's own rounding moves its norm by 1.3e-12 and
    # its tail probability by 1.25e-12 from an 80-bit sine-mode solution
    ("rep5", 55.857914341103672, 8000.0, 2e-12),
])
def test_uniform_medium_modes_match_the_stepper(stepped_runs, name, E0, extra_time, beyond_tol):
    """The free references of the campaign's dressed and bare 58.5 meV plans
    and of its long bare plan, solved in sine modes on the closed box that
    reaches past the grid, against the same runs stepped with both ends open:
    arrival, tail probability, the samples where a centroid is reported and
    its value there, the final state, the norm and what left on the right."""
    stack = load_stack(ROOT / "stacks" / f"{name}.json")
    grid, packet, x_sep, x_d = plan_run(stack, E0, sigma_x=90.0, dx=0.5, dt=2.0,
                                        extra_time=extra_time)
    free = free_reference(stack)
    exact = evolve(free, grid, packet, x_sep)
    assert not stepped_runs
    with stepping():
        stepped = evolve(free, grid, packet, x_sep)
    assert stepped_runs
    arrivals = [_arrival(r.times, r.centroid, r.beyond_prob, x_d) for r in (exact, stepped)]
    assert abs(arrivals[0] - arrivals[1]) < 1e-9
    assert np.abs(exact.beyond_prob - stepped.beyond_prob).max() < beyond_tol
    shown = np.isfinite(stepped.centroid)
    assert np.array_equal(np.isfinite(exact.centroid), shown)
    assert np.abs(exact.centroid - stepped.centroid)[shown].max() < 1e-6
    assert np.abs(exact.psi_final - stepped.psi_final).max() < 1e-10
    assert exact.norm_drift < 1e-12
    assert abs(exact.right_outflow - stepped.right_outflow) < beyond_tol
    assert exact.right_outflow > 0.99  # the free packet has left the grid by the end


@pytest.mark.parametrize("name, E0, extra_time, sigma_x, dx, dt", [
    ("rep5_arc", 58.5, 0.0, 90.0, 0.5, 2.0),
    ("rep5", 55.857914341103672, 8000.0, 90.0, 0.5, 2.0),
    ("rep5", 58.5, 0.0, 60.0, 0.25, 1.0),  # ``sltime tdse``'s default plan
])
def test_free_reference_on_the_plan_grid_matches_the_full_closed_box(stepped_runs, name, E0,
                                                                     extra_time, sigma_x, dx, dt):
    """The free reference on ``plan_run``'s grid, whose right end lies ten
    widths past the detector, is solved in sine modes on a closed box that
    reaches to ``tdse._reach``, as the full closed box (``closed_grid``) does:
    the two agree on the arrival to 1e-9 fs, on ``beyond_prob`` (inside plus
    what left the grid) to 1e-12 and on the final state on the grid to
    1e-10, and wherever the plan's run reports a centroid, on it to 1e-6 nm.
    It reports one at every sample the full box does up to the crossing,
    and none once more than 1e-12 has left the grid."""
    stack = load_stack(ROOT / "stacks" / f"{name}.json")
    grid, packet, x_sep, x_d = plan_run(stack, E0, sigma_x=sigma_x, dx=dx, dt=dt,
                                        extra_time=extra_time)
    free = free_reference(stack)
    full = closed_grid(stack, grid, packet)
    cut, whole = evolve(free, grid, packet, x_sep), evolve(free, full, packet, x_sep,
                                                           monitor_walls=False)
    assert not stepped_runs
    arrivals = [_arrival(r.times, r.centroid, r.beyond_prob, x_d) for r in (cut, whole)]
    assert abs(arrivals[0] - arrivals[1]) <= 1e-9
    assert np.abs(cut.beyond_prob - whole.beyond_prob).max() <= 1e-12
    cells = round((grid.x_min - full.x_min) / dx)
    assert np.abs(cut.psi_final - whole.psi_final[cells:cells + grid.n_points]).max() <= 1e-10
    shown = np.isfinite(cut.centroid)
    crossed = np.flatnonzero(whole.centroid > x_d)[0]
    assert np.array_equal(shown[:crossed + 2], np.isfinite(whole.centroid[:crossed + 2]))
    assert np.abs(cut.centroid - whole.centroid)[shown].max() <= 1e-6
    assert not shown[-1] and cut.right_outflow > 0.99 and cut.left_outflow == 0.0
    assert cut.norm_drift <= 1e-12 and cut.energy_drift <= 1e-12


@settings(max_examples=25)
@given(st.floats(0.04, 0.15), st.floats(-50.0, 50.0), st.floats(300.0, 900.0),
       st.floats(0.2, 1.0), st.floats(0.2, 3.0), st.integers(1, 150), st.floats(10.0, 80.0),
       st.floats(-0.6, 0.6), st.floats(1.0, 100.0), st.floats(0.0, 1.0), st.integers(0, 400))
def test_uniform_medium_sums_equal_the_stepped_sums(mass, V, half, dx, dt, n_steps, sigma,
                                                    launch, e_kin, sep, past):
    """Both producers' raw per-record sums on random uniform media, packets
    and separators: norm, tail probability, its first moment (relative to
    the largest |x|), the two outflows, which are 0 in both, and the density
    within five cells of the walls, and the final state and energy.  The
    sine modes solve the closed box, so the reference is the closed stepper
    (no ``lead``), whose tails beyond the wall strips give their density.
    On a box ``past`` sites longer than the grid, what the modes count as
    right outflow is the closed stepper's share of the longer box past the
    grid."""
    lead = Layer(5.0, V, mass)
    stack = StackSpec(core=CellSpec((Layer(10.0, V, mass),)), replicas=1, outside=lead)
    grid = Grid1D(x_min=-half, x_max=half, dx=dx, dt=dt, n_steps=n_steps)
    psi = initial_state(grid, WavePacket(launch * half, V + e_kin, sigma), lead)
    x = grid.x
    n = x.size
    j = 1 + round(sep * (n - 3))
    diag, off = _hamiltonian_diagonals(stack, grid)
    lam = 0.5 * dt / CONSTANTS.hbar
    modes = tdse._uniform_sums(diag[0], off[0], lam, psi.copy(), x, j, n_steps + 1, n)
    assume(modes is not None)
    steps = tdse._stepped_sums(diag, off, lam, psi.copy(), x, j, n_steps + 1)
    gap = grid.dx * np.abs(modes[0] - steps[0]).max(axis=1)
    assert np.all(gap <= [1e-12, 1e-12, 1e-12 * half, 0.0, 0.0])
    assert np.abs(modes[1] - steps[1]).max() <= 1e-12
    assert abs(modes[2] - steps[2]) <= 1e-12 * max(abs(steps[2]), 1e-30)
    walls = [tdse._stepped_sums(diag, off, lam, psi.copy(), x, i, n_steps + 1)[0][:2]
             for i in (5, n - 5)]  # the tails beyond site 4 and beyond site n-6
    walls = walls[0][0] - walls[0][1] + walls[1][1]  # the five sites at either end
    assert grid.dx * np.abs(modes[3] - walls).max() <= 1e-14  # the wall gate is 1e-10
    # the same run on a box that reaches past the grid
    box = n + past
    longer = tdse._uniform_sums(diag[0], off[0], lam, psi.copy(), x, j, n_steps + 1, box)
    assume(longer is not None)
    wide = np.full(box, diag[0]), np.full(box - 1, off[0])
    steps = tdse._stepped_sums(*wide, lam, np.r_[psi, np.zeros(past)],
                               x[0] + grid.dx * np.arange(box), j, n_steps + 1)
    norm, beyond, _, left, right = grid.dx * longer[0]
    assert np.abs(norm + right - grid.dx * steps[0][0]).max() <= 1e-12
    assert np.abs(beyond + right - grid.dx * steps[0][1]).max() <= 1e-12
    assert not left.any() and (past or not right.any())
    assert np.abs(longer[1] - steps[1][:n]).max() <= 1e-12


def test_uniform_medium_with_most_modes_is_stepped(stepped_runs):
    """White noise fills nearly every sine mode, which would cost more than
    steps: evolve steps it, and allocates no mode-by-mode array."""
    stack = _uniform_stack(10.0)
    grid = Grid1D(x_min=-500.0, x_max=500.0, dx=0.25, dt=1.0, n_steps=20)
    n = grid.n_points
    rng = np.random.default_rng(7)
    psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    tracemalloc.start()
    try:
        rec = evolve(stack, grid, WavePacket(x0=0.0, E0=60.0, sigma_x=20.0), x_sep=0.0,
                     psi0=psi0, monitor_walls=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stepped_runs
    assert rec.norm_drift < 1e-12
    assert peak < 32 * 16 * n  # stepping peaks near 19 complex n-vectors; n x n is n/32 times this


def test_nan_state_on_a_uniform_medium_fails_at_its_first_step():
    stack = _uniform_stack(10.0)
    grid = Grid1D(x_min=-600.0, x_max=600.0, dx=0.5, dt=1.0, n_steps=20)
    packet = WavePacket(x0=-300.0, E0=58.5, sigma_x=25.0)
    psi0 = initial_state(grid, packet, stack.outside)
    psi0[100] = math.nan
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericError, match=r"norm jumped by nan in one step at t = 0\.0 fs"):
        evolve(stack, grid, packet, x_sep=100.0, psi0=psi0)


def test_import_leaves_numpy_fft_unloaded():
    """Only a uniform-medium run imports numpy.fft; the package and its CLI
    load no module for it."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, sltime.cli; print('numpy.fft' in sys.modules)"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False"]


def test_norm_and_energy_conserved_through_stack():
    """Norm and energy, inside plus what left through the open ends, are
    conserved; the reflected packet has mostly left by the end, and part of
    the transmitted one."""
    stack = representative_stack(5)
    grid, packet, x_sep, x_d = plan_run(stack, 58.5, sigma_x=25.0, dx=0.5, dt=2.0)
    rec = evolve(stack, grid, packet, x_sep)
    assert rec.norm_drift < 1e-9
    assert rec.energy_drift < 1e-9
    assert all(type(f) is float for f in (rec.norm_drift, rec.energy_drift, rec.left_outflow,
                                          rec.right_outflow))
    assert 0.0 < rec.transmitted_fraction < 1.0
    assert 0.0 < rec.left_outflow < 1.0 - rec.transmitted_fraction
    assert 0.0 < rec.right_outflow < rec.transmitted_fraction
    # transmitted probability is monotone once the packet has cleared the sep
    late = rec.beyond_prob[-200:]
    assert np.all(np.diff(late) > -1e-9)


def test_plan_run_geometry():
    stack = representative_stack(5)
    grid, packet, x_sep, x_d = plan_run(stack, 58.5, sigma_x=40.0)
    half_w = 0.5 * stack.width
    assert packet.x0 == pytest.approx(-(half_w + 400.0))
    assert x_sep == pytest.approx(half_w + grid.dx)
    assert x_d == pytest.approx(half_w + 240.0)
    assert packet.x0 - 11.0 * packet.sigma_x - grid.dx < grid.x_min
    assert grid.x_min <= packet.x0 - 11.0 * packet.sigma_x  # the open left end
    # the open right end: ten free widths past the detector, the width at the
    # end of the run without extra time, 1.5 travel times to 6 widths past it
    v0 = CONSTANTS.velocity(packet.k0(LEAD), LEAD.mass_ratio)
    t_final = 1.5 * (x_d - packet.x0 + 6.0 * packet.sigma_x) / v0
    alpha = CONSTANTS.hbar2_over_2m0 / LEAD.mass_ratio
    x_right = x_d + 10.0 * packet.sigma_x * math.hypot(1.0, alpha * t_final
                                                      / (CONSTANTS.hbar * packet.sigma_x**2))
    assert grid.t_final == pytest.approx(t_final, abs=grid.dt)
    assert x_right <= grid.x_max < x_right + grid.dx
    assert grid.x[-1] == pytest.approx(grid.x_max, abs=1e-9)
    longer, *_ = plan_run(stack, 58.5, sigma_x=40.0, extra_time=3000.0)
    assert longer.n_steps > grid.n_steps
    assert longer.t_final >= grid.t_final + 3000.0 - 1.0
    assert (longer.x_min, longer.x_max) != (grid.x_min, grid.x_max)  # the lattice moved
    assert longer.n_points == pytest.approx(grid.n_points, abs=1)  # the ends did not


def _well_run():
    """Two cells around a -4 eV well, mass steps included, on a 401-point grid."""
    well = CellSpec((Layer(2.0, 250.0, 0.092), Layer(1.5, -4000.0, 0.05),
                     Layer(2.0, 250.0, 0.092)), symmetric=True)
    stack = StackSpec(core=well, replicas=2, outside=LEAD)
    return stack, Grid1D(x_min=-100.0, x_max=100.0, dx=0.5, dt=1.0, n_steps=50)


def test_step_matches_dense_crank_nicolson():
    """Each step against numpy's dense solve of (1 + i lam H) psi' = (1 - i lam H) psi,
    with both ends open, where H gains o s_0 at (0, 0) and (n-1, n-1) and the
    right side -i lam o sum_k>=1 s_k chi of step n-k at rows 0 and n-1, chi
    at that row (the module notes), and in the closed box
    (``monitor_walls=False``).

    Mass steps make the off-diagonal non-uniform, and the -4 eV well makes
    the factorization pivot (checked below), so a mis-wired factor or
    pivot, a shifted band, or a step other than 2 A^-1 psi - psi all show
    up in psi_final.  In 50 fs the spreading sigma = 6 nm packet puts
    density on the left end (the open and closed runs' final states differ
    by 3.6e-9), and its mirror image, launched leftwards from +35 nm, on the
    right end, so each end's kernel and history sum are checked too.
    """
    from scipy.linalg.lapack import zgttrf

    stack, grid = _well_run()
    packet = WavePacket(x0=-35.0, E0=100.0, sigma_x=6.0)
    diag, off = _hamiltonian_diagonals(stack, grid)
    lam = 0.5 * grid.dt / CONSTANTS.hbar
    *_, du2, ipiv, _ = zgttrf(1j * lam * off, 1.0 + 1j * lam * diag, 1j * lam * off)
    assert np.any(du2 != 0.0) and np.any(ipiv != np.arange(1, grid.n_points + 1))
    d, o = _lead_row(LEAD, grid.dx)
    one = np.eye(grid.n_points)
    x = grid.x
    launch = initial_state(grid, packet, LEAD)
    outflows = {}
    for open_ends, mirrored in ((True, False), (True, True), (False, False)):
        start = launch[::-1] if mirrored else launch
        rec = evolve(stack, grid, packet, 0.5 * stack.width + grid.dx, psi0=start,
                     monitor_walls=open_ends)
        s = tdse._ghost_kernel(d, o, lam, grid.n_steps) if open_ends else np.zeros(grid.n_steps + 1)
        lam_h = 1j * lam * (np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        lam_h[[0, -1], [0, -1]] += 1j * lam * o * s[0]
        beyond = x > rec.x_sep
        psi = start.copy()
        probs, moments, chi = [], [], []
        for i in range(grid.n_steps + 1):
            if i:
                rhs = (one - lam_h) @ psi
                rhs[[0, -1]] -= 1j * lam * o * (s[1:i] @ np.array(chi[::-1]).reshape(-1, 2))
                new = np.linalg.solve(one + lam_h, rhs)
                chi.append(new[[0, -1]] + psi[[0, -1]])
                psi = new
            dens = np.abs(psi[beyond]) ** 2
            probs.append(grid.dx * dens.sum())
            moments.append(grid.dx * np.sum(x[beyond] * dens))
        probs, centroids = np.array(probs), np.array(moments) / probs
        assert np.abs(rec.psi_final - psi).max() <= 1e-12
        assert rec.transmitted_fraction > 1e-5  # the portion beyond x_sep is really there
        np.testing.assert_allclose(rec.beyond_prob, probs, rtol=1e-10, atol=1e-16)
        shown = probs > 1e-4 * probs[-1]  # the right outflow stays below 1e-12 here
        assert np.array_equal(np.isfinite(rec.centroid), shown)
        np.testing.assert_allclose(rec.centroid[shown], centroids[shown], rtol=0.0, atol=1e-9)
        assert rec.norm_drift < 1e-12
        outflows[open_ends, mirrored] = rec.left_outflow, rec.right_outflow
        if not open_ends:  # a closed box reports +0.0, not -0.0
            assert [math.copysign(1.0, f) for f in (rec.left_outflow, rec.right_outflow)] == [1, 1]
    left, right = outflows[True, False]  # 2.7e-17 and 3.1e-20
    assert left > 100.0 * right > 0.0
    left, right = outflows[True, True]
    assert right > 100.0 * left > 0.0
    assert outflows[False, False] == (0.0, 0.0)


def test_evolve_loads_no_scipy_module():
    """The stepping is numpy alone: no scipy module is imported."""
    script = (
        "import sys\n"
        "from sltime.medium import representative_stack\n"
        "from sltime.tdse import evolve, plan_run\n"
        "stack = representative_stack(5)\n"
        "grid, packet, x_sep, _ = plan_run(stack, 58.5, sigma_x=10.0, dx=1.0, dt=4.0)\n"
        "rec = evolve(stack, grid, packet, x_sep)\n"
        "print(rec.transmitted_fraction)\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    fraction, modules = proc.stdout.splitlines()
    assert float(fraction) > 0.0  # the listing really covers a run
    loaded = modules.split()
    assert "sltime.tdse" in loaded
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]


@st.composite
def _cn_systems(draw, points=None):
    """A Crank-Nicolson matrix 1 + i lam H of a random stack, with wells as
    deep and barriers as high as 5 eV, and lam max|H_i,i+1| from 1e-2 to 1e2,
    and in half the draws the open ends' i lam o s_0 on rows 0 and n-1;
    ``points`` bounds the grid's point count, which is otherwise 40 or more."""
    cell = CellSpec(tuple(draw(st.lists(layers(-5000.0, 5000.0), min_size=1, max_size=4))))
    stack = StackSpec(core=cell, replicas=draw(st.integers(1, 3)),
                      outside=Layer(5.0, 0.0, draw(st.floats(0.04, 0.15))))
    half = 0.5 * stack.width + draw(st.floats(20.0, 80.0))
    dx = draw(st.floats(0.1, 1.0) if points is None
              else st.integers(*points).map(lambda n: 2.0 * half / (n - 1)))
    grid = Grid1D(x_min=-half, x_max=half, dx=dx, dt=1.0, n_steps=1)
    diag, off = _hamiltonian_diagonals(stack, grid)
    lam = 10.0 ** draw(st.floats(-2.0, 2.0)) / np.abs(off).max()
    return 1j * lam * off, _open_row(1.0 + 1j * lam * diag, stack.outside, grid.dx, lam,
                                     draw(st.booleans()))


def _open_row(diag, lead, dx, lam, open_ends=True):
    """A's diagonal ``diag``, with the open ends' i lam o s_0 added to rows 0
    and n-1 as ``evolve`` adds it (to A/2, halved), if ``open_ends``."""
    if open_ends:
        d, o = _lead_row(lead, dx)
        diag[[0, -1]] += 1j * lam * o * tdse._ghost_kernel(d, o, lam, 1)[0]
    return diag


def _well_system():
    """The Crank-Nicolson matrix of the -4 eV well run, where zgttrf pivots,
    with both ends open."""
    stack, grid = _well_run()
    diag, off = _hamiltonian_diagonals(stack, grid)
    lam = 0.5 * grid.dt / CONSTANTS.hbar
    return 1j * lam * off, _open_row(1.0 + 1j * lam * diag, stack.outside, grid.dx, lam)


def _assert_step_matches_a_dense_solve(off, diag, seed):
    """One ``step`` of a random psi against chi - psi from a pivoted dense
    solve of A chi = psi.  psi is the exact input, so subtracting it adds at
    most one rounding of chi - psi, and the 2-norm bound stays relative to
    chi's, as for the solve alone (worst seen in 1000 examples each: 7.0e-15
    with reduction levels, 2.6e-15 without)."""
    solver = _CyclicReduction(off, diag, off)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=diag.size) + 1j * rng.normal(size=diag.size)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    chi = np.linalg.solve(dense, psi)
    solver.psi[:] = psi
    solver.step()
    assert np.linalg.norm(solver.psi - (chi - psi)) <= 1e-12 * np.linalg.norm(chi)
    return solver


def _kernel_by_temporaries(d, o, lam, n_steps):
    """``tdse._ghost_kernel`` as the plain expression: nu(z) on the circle
    through one full-length temporary per operation."""
    def nu(z):
        w = (0.5 / o) * ((1.0 - z) / (1j * lam * (1.0 + z)) - d)
        root = np.sqrt(w * w - 1.0)
        return 1.0 / (w + np.where((w.conj() * root).real >= 0.0, root, -root))

    size = max(1024, 1 << (4 * n_steps + 3).bit_length())
    rho, k = 1e10 ** (1.0 / size), np.arange(size // 4)
    s = np.fft.ifft(nu(rho * np.exp(2j * math.pi / size * np.arange(size))))
    return (s[:k.size] * rho**k)[:n_steps + 1]


def test_ghost_kernel_works_in_place():
    """The kernel evaluates nu(z) in place, bit for bit the plain expression,
    for the campaign's bare 58.5 meV plan (2744 steps: one call peaked at
    1.36 MB of traced memory through the temporaries, and peaks at 0.82 MB)
    and for short and long runs, fine and coarse lattices and time steps."""
    stack = load_stack(ROOT / "stacks" / "rep5.json")
    grid, *_ = plan_run(stack, 58.5, sigma_x=90.0, dx=0.5, dt=2.0)
    assert grid.n_steps == 2744
    lam = 0.5 * grid.dt / CONSTANTS.hbar
    d, o = _lead_row(stack.outside, grid.dx)
    tdse._ghost_kernel(d, o, lam, grid.n_steps)  # numpy.fft's plans and caches
    tracemalloc.start()
    try:
        kernel = tdse._ghost_kernel(d, o, lam, grid.n_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0e6
    assert kernel.tobytes() == _kernel_by_temporaries(d, o, lam, grid.n_steps).tobytes()
    for n in (1, 300, 6808):
        for dx in (0.25, 1.0):
            for dt in (0.1, 30.0):
                case = *_lead_row(LEAD, dx), 0.5 * dt / CONSTANTS.hbar, n
                want = _kernel_by_temporaries(*case)
                assert tdse._ghost_kernel(*case).tobytes() == want.tobytes()


@given(st.one_of(_cn_systems(), st.just(_well_system())), st.integers(0, 2**32 - 1))
def test_cyclic_reduction_needs_no_pivoting(system, seed):
    """A's Hermitian part is the identity, plus -lam o Im s_0 > 0 at (0, 0)
    and (n-1, n-1) with open ends (o < 0, Im s_0 > 0; the smallest seen in the 840
    open draws of 2000 examples was 1.3e-5, and the well run's is 0.50), so
    every Schur complement keeps one >= 1 and every reduction pivot has real
    part >= 1; a step then matches a pivoted dense solve to roundoff."""
    off, diag = system
    assert np.all(off.real == 0.0)  # so the Hermitian part is diag(Re A_ii)
    assert diag.real.min() >= 1.0
    solver = _assert_step_matches_a_dense_solve(*system, seed)
    assert solver._top is not None  # the system is big enough to be reduced
    pivots = np.concatenate([1.0 / inv_pivot for _, inv_pivot, *_ in (solver._top, *solver._up)])
    assert pivots.real.min() >= 1.0 - 1e-12


@given(_cn_systems(points=(3, tdse._DENSE)), st.integers(0, 2**32 - 1))
def test_cyclic_reduction_steps_systems_below_one_level(system, seed):
    """3 to 32 points: no reduction level, only the dense bottom solve."""
    solver = _assert_step_matches_a_dense_solve(*system, seed)
    assert solver._top is None and not solver._up


def test_plan_run_left_end_sits_on_the_closed_lattice():
    """The open left end is the lattice point at or just left of x0 - 11 sigma
    of the closed box that the parent plan stepped, whose left wall sat at
    the mirror image of ``tdse._reach`` of the planned run about x0, moved
    right by twice -w/2 - x0 in whole cells, so every site keeps its place
    against the interfaces; ``closed_grid`` extends the grid on that lattice."""
    stack = representative_stack(5)
    for sigma_x, dx in ((40.0, 0.25), (90.0, 0.5), (25.0, 0.3)):
        grid, packet, _, x_d = plan_run(stack, 58.5, sigma_x=sigma_x, dx=dx)
        v0 = CONSTANTS.velocity(packet.k0(LEAD), LEAD.mass_ratio)
        t_final = 1.5 * (x_d - packet.x0 + 6.0 * sigma_x) / v0
        wall = (2.0 * packet.x0 - tdse._reach(packet, LEAD, t_final)
                + dx * math.floor(2.0 * (-0.5 * stack.width - packet.x0) / dx))
        cells = (grid.x_min - wall) / dx
        assert cells == pytest.approx(round(cells), abs=1e-9)
        assert round(cells) == math.floor((packet.x0 - 11.0 * sigma_x - wall) / dx + 1e-9)
        closed = closed_grid(stack, grid, packet)
        cells = round((grid.x_min - closed.x_min) / dx)
        assert cells > 0 and closed.n_points - grid.n_points > cells
        assert np.abs(grid.x - closed.x[cells:cells + grid.n_points]).max() < 1e-9
        V, m = _material_arrays(stack, grid.x)
        V_old, m_old = _material_arrays(stack, closed.x[cells:cells + grid.n_points])
        assert np.array_equal(V, V_old) and np.array_equal(m, m_old)
        assert grid.x_min < -0.5 * stack.width


def test_trimmed_domain_holds_a_trapped_reflection():
    """A run lengthened for resonance trapping: what the stack traps stays on
    the trimmed grid while the reflection leaves through the open left end
    and the transmitted packet through the open right end, and norm plus
    outflow stays 1."""
    stack = representative_stack(5)
    grid, packet, x_sep, _ = plan_run(stack, 52.81, sigma_x=25.0, dx=0.5, dt=2.0,
                                      extra_time=1000.0)
    rec = evolve(stack, grid, packet, x_sep)
    assert 0.0 < rec.transmitted_fraction < 1.0
    assert 0.0 < rec.left_outflow < 1.0 - rec.transmitted_fraction
    assert 0.0 < rec.right_outflow < rec.transmitted_fraction
    assert rec.norm_drift < 1e-9


@pytest.mark.parametrize("E0", [58.5, 150.0])
def test_open_left_end_absorbs_a_left_moving_packet(stepped_runs, E0):
    """A packet launched leftwards leaves through the open end: after 3000 fs
    at most 1e-20 of it is left inside (7e-25 and 4e-25 seen), and norm and
    energy, each plus what left, hold to 1e-12 (9.1e-14 at most seen)."""
    stack = _uniform_stack(10.0)
    grid = Grid1D(x_min=-600.0, x_max=600.0, dx=0.5, dt=2.0, n_steps=1500)
    packet = WavePacket(x0=-200.0, E0=E0, sigma_x=40.0)
    psi0 = initial_state(grid, packet, stack.outside).conj()
    with stepping():
        rec = evolve(stack, grid, packet, x_sep=100.0, psi0=psi0)
    assert stepped_runs
    inside = grid.dx * float(np.sum(np.abs(rec.psi_final) ** 2))
    assert inside <= 1e-20
    assert rec.left_outflow == pytest.approx(1.0, abs=1e-12)
    assert rec.norm_drift <= 1e-12
    assert rec.energy_drift <= 1e-12


@pytest.mark.parametrize("E0", [58.5, 150.0])
def test_open_right_end_absorbs_a_right_moving_packet(stepped_runs, E0):
    """The mirror image: a packet launched rightwards from +200 nm leaves
    through the open right end, with the same bounds; it all crossed x_sep,
    so ``beyond_prob`` ends at 1, and with nothing left on the grid no
    centroid is reported at the end."""
    stack = _uniform_stack(10.0)
    grid = Grid1D(x_min=-600.0, x_max=600.0, dx=0.5, dt=2.0, n_steps=1500)
    packet = WavePacket(x0=200.0, E0=E0, sigma_x=40.0)
    with stepping():
        rec = evolve(stack, grid, packet, x_sep=-100.0)
    assert stepped_runs
    inside = grid.dx * float(np.sum(np.abs(rec.psi_final) ** 2))
    assert inside <= 1e-20
    assert rec.right_outflow == pytest.approx(1.0, abs=1e-12)
    assert rec.transmitted_fraction == pytest.approx(1.0, abs=1e-12)
    assert np.isnan(rec.centroid[-1]) and np.isfinite(rec.centroid[0])
    assert rec.norm_drift <= 1e-12
    assert rec.energy_drift <= 1e-12


def test_open_left_end_inside_the_stack_is_refused(stepped_runs):
    """The boundary assumes lead material beyond the left end, and takes the
    lead's row of H from the grid's first row: a monitored stepped run whose
    second site lies at or right of -w/2 is refused before any step, and a
    closed-box run on the same grid is not."""
    stack = representative_stack(5)
    packet = WavePacket(x0=100.0, E0=58.5, sigma_x=10.0)
    for x_min in (-0.5 * stack.width - 0.125, -0.5 * stack.width, -0.5 * stack.width + 0.25):
        grid = Grid1D(x_min=x_min, x_max=400.0, dx=0.25, dt=1.0, n_steps=5)
        with pytest.raises(ValidationError, match="open left end"):
            evolve(stack, grid, packet, x_sep=200.0)
        assert not stepped_runs
        evolve(stack, grid, packet, x_sep=200.0, monitor_walls=False)
        assert stepped_runs
        stepped_runs.clear()


def test_open_right_end_inside_the_stack_is_refused(stepped_runs):
    """The mirror image: a monitored stepped run whose last but one site lies
    at or left of w/2 is refused before any step, and a closed-box run on the
    same grid is not."""
    stack = representative_stack(5)
    packet = WavePacket(x0=-100.0, E0=58.5, sigma_x=10.0)
    for x_max in (0.5 * stack.width + 0.125, 0.5 * stack.width, 0.5 * stack.width - 0.25):
        grid = Grid1D(x_min=-400.0, x_max=x_max, dx=0.25, dt=1.0, n_steps=5)
        with pytest.raises(ValidationError, match="open right end"):
            evolve(stack, grid, packet, x_sep=-200.0)
        assert not stepped_runs
        evolve(stack, grid, packet, x_sep=-200.0, monitor_walls=False)
        assert stepped_runs
        stepped_runs.clear()


def test_wall_monitor_trips_on_undersized_domain(stepped_runs):
    """A uniform medium's sine-mode box keeps hard walls, and its monitor
    watches both: a packet launched leftwards 350 nm from the left one
    reaches it within the run."""
    stack = _uniform_stack(10.0)
    grid = Grid1D(x_min=-100.0, x_max=600.0, dx=0.5, dt=1.0, n_steps=400)
    packet = WavePacket(x0=250.0, E0=60.0, sigma_x=30.0)
    psi0 = initial_state(grid, packet, stack.outside).conj()
    with pytest.raises(NumericError, match="wall"):
        evolve(stack, grid, packet, x_sep=10.0, psi0=psi0)
    assert not stepped_runs


def test_wall_monitor_trips_at_the_same_step_in_modes_and_in_steps(stepped_runs):
    """A monitored sine-mode run's box reaches right past its grid, to
    ``tdse._reach`` and on to a size its FFTs take fast: on a grid cut
    shorter it trips the wall monitor as on the grid of the whole box, and
    both where the closed stepper's state on that box first puts more than
    1e-10 within five cells of its walls, with the same density to the
    printed digits."""
    stack = _uniform_stack(10.0)
    packet = WavePacket(x0=150.0, E0=150.0, sigma_x=40.0)  # 182 of 3217 modes
    cut = Grid1D(x_min=-600.0, x_max=600.0, dx=0.5, dt=1.0, n_steps=800)
    end = tdse._reach(packet, stack.outside, cut.t_final)
    sites = tdse._smooth_size(math.ceil((end - cut.x_min) / cut.dx) + 1)
    box = Grid1D(cut.x_min, cut.x_min + cut.dx * (sites - 1), cut.dx, cut.dt, cut.n_steps)
    assert box.n_points > cut.n_points
    start = initial_state(box, packet, stack.outside).conj()  # launched leftwards
    messages = []
    for grid in (cut, box):
        with pytest.raises(NumericError, match="reached a domain wall") as failure:
            evolve(stack, grid, packet, x_sep=10.0, psi0=start[:grid.n_points])
        messages.append(str(failure.value))
    assert not stepped_runs  # both solved in modes
    assert messages[0] == messages[1]
    t = float(messages[0].split("at t = ")[1].split(" fs")[0])
    walls = np.r_[:5, box.n_points - 5:box.n_points]
    densities = []
    for n_steps in (round(t / box.dt) - 1, round(t / box.dt)):
        with stepping():
            closed = evolve(stack, Grid1D(box.x_min, box.x_max, box.dx, box.dt, n_steps),
                            packet, x_sep=10.0, psi0=start, monitor_walls=False)
        densities.append(box.dx * float(np.sum(np.abs(closed.psi_final[walls]) ** 2)))
    assert stepped_runs
    assert densities[0] <= 1e-10 < densities[1]
    assert messages[0].startswith(f"density {densities[1]:.2e} reached a domain wall "
                                  f"at t = {t:.1f} fs")


def _synthetic_record(beyond, centroid, x_sep=25.0, n=50):
    times = np.linspace(0.0, 490.0, n)
    return PacketRecord(
        times=times,
        beyond_prob=np.full(n, beyond),
        centroid=np.full(n, centroid),
        x_sep=x_sep,
        norm_drift=0.0,
        energy_drift=0.0,
        left_outflow=0.0,
        right_outflow=0.0,
        psi_final=np.zeros(4, dtype=complex),
    )


def _moving_record(speed=0.5, x_sep=25.0, n=50):
    times = np.linspace(0.0, 490.0, n)
    return PacketRecord(
        times=times,
        beyond_prob=np.full(n, 0.8),
        centroid=x_sep + speed * times,
        x_sep=x_sep,
        norm_drift=0.0,
        energy_drift=0.0,
        left_outflow=0.0,
        right_outflow=0.0,
        psi_final=np.zeros(4, dtype=complex),
    )


def test_packet_delay_guards():
    free = _moving_record()
    with pytest.raises(NoTransmissionError):
        packet_delay(_synthetic_record(5e-5, 40.0), 60.0, free)
    with pytest.raises(ValidationError, match="detector"):
        packet_delay(_moving_record(), 10.0, free)
    with pytest.raises(NumericError, match="never crossed"):
        packet_delay(_synthetic_record(0.5, 30.0), 200.0, free)
    short = _moving_record(n=40)
    with pytest.raises(ValidationError, match="time grids"):
        packet_delay(_moving_record(), 60.0, short)


def test_packet_delay_guards_refuse_nan():
    """A NaN detector or transmitted fraction fails its guard, not a later
    centroid search."""
    free = _moving_record()
    with pytest.raises(ValidationError, match="detector"):
        packet_delay(_moving_record(), math.nan, free)
    with pytest.raises(NoTransmissionError):
        packet_delay(_synthetic_record(math.nan, 40.0), 60.0, free)


def test_nan_state_fails_the_norm_check_at_its_first_step():
    stack = representative_stack(5)
    grid = Grid1D(x_min=-600.0, x_max=600.0, dx=0.5, dt=1.0, n_steps=20)
    packet = WavePacket(x0=-300.0, E0=58.5, sigma_x=25.0)
    psi0 = initial_state(grid, packet, stack.outside)
    psi0[100] = math.nan
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericError, match=r"norm jumped by nan in one step at t = 0\.0 fs"):
        evolve(stack, grid, packet, x_sep=100.0, psi0=psi0)


def test_packet_delay_interpolates_crossings():
    # both centroids move ballistically; the slower one lags by a known time
    fast = _moving_record(speed=0.5)
    slow = _moving_record(speed=0.4)
    x_d = 100.0
    res = packet_delay(slow, x_d, fast)
    want = (x_d - 25.0) / 0.4 - (x_d - 25.0) / 0.5
    assert res.delay == pytest.approx(want, abs=1e-9)
    assert res.arrival_free == pytest.approx((x_d - 25.0) / 0.5, abs=1e-9)
    assert res.transmitted_fraction == pytest.approx(0.8)


def test_delay_result_fraction_range_guard():
    from sltime.tdse import DelayResult

    with pytest.raises(ValidationError):
        DelayResult(100.0, 50.0, 50.0, 1.5, math.nan)


def test_spectral_average_constant_and_linear():
    packet = WavePacket(x0=-500.0, E0=58.5, sigma_x=60.0)
    E = np.linspace(40.0, 80.0, 4001)
    assert spectral_average(E, np.full(E.shape, 7.25), packet, LEAD) == pytest.approx(7.25, rel=1e-12)
    # mean energy of the momentum Gaussian: E0 + alpha sigma_k^2 exactly
    alpha = CONSTANTS.hbar2_over_2m0 / 0.067
    shift = alpha * (0.5 / packet.sigma_x) ** 2
    assert spectral_average(E, E, packet, LEAD) == pytest.approx(58.5 + shift, abs=1e-3)


def test_spectral_average_narrow_packet_picks_local_value():
    packet = WavePacket(x0=-500.0, E0=58.5, sigma_x=400.0)
    E = np.linspace(50.0, 67.0, 2001)
    f = (E - 58.5) ** 3 + 4.0 * E
    assert spectral_average(E, f, packet, LEAD) == pytest.approx(4.0 * 58.5, rel=1e-4)


def test_spectral_average_guards_and_in_band_weight():
    """The average refuses malformed curves and warns about nothing; the
    weight its band-interior window leaves out is reported instead:
    ``sltime tdse``'s default plan on rep5 (58.5 meV, sigma 60 nm) keeps
    0.97380 of the packet's spectral weight, as a quadrature of the
    momentum Gaussian over that window gives too."""
    packet = WavePacket(x0=-500.0, E0=58.5, sigma_x=60.0)
    E = np.linspace(50.0, 67.0, 101)
    with pytest.raises(ValidationError):
        spectral_average(E[::-1], E, packet, LEAD)
    with pytest.raises(ValidationError):
        spectral_average(E, E[:-1], packet, LEAD)
    with pytest.raises(ValidationError):
        spectral_average(np.linspace(-2.0, 2.0, 40), np.ones(40), packet, LEAD)

    stack = load_stack("stacks/rep5.json")
    band = _pick_band(as_model(stack.core, stack.outside), 1)
    args = build_parser().parse_args(["tdse", "--stack", "stacks/rep5.json", "--E0", "58.5"])
    plan = plan_run(stack, args.E0, sigma_x=args.sigma_x, dx=args.dx, dt=args.dt,
                    extra_time=args.extra_time)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spectral_average(np.linspace(57.5, 59.5, 40), np.ones(40), plan[1],
                                LEAD) == pytest.approx(1.0, rel=1e-12)
        weight = _tdse_predictions(stack, band, *plan)["bloch_spectral_weight"]
    assert weight == pytest.approx(0.97380, abs=5e-6)
    k0, s = plan[1].k0(LEAD), plan[1].sigma_x
    lo, hi = (math.sqrt(e * LEAD.mass_ratio / CONSTANTS.hbar2_over_2m0)
              for e in band.interior(5e-3))
    inside, total = (np.trapezoid(np.exp(-2.0 * s**2 * (k - k0) ** 2), k)
                     for k in (np.linspace(lo, hi, 20001),
                               np.linspace(k0 - 12.0 / s, k0 + 12.0 / s, 20001)))
    assert weight == pytest.approx(inside / total, abs=1e-9)


def test_stationary_delay_vanishes_for_free_stack():
    free = free_reference(representative_stack(5))
    assert free.width == pytest.approx(47.5)
    assert all(l.potential == 0.0 for l in free.segments())
    packet = WavePacket(x0=-500.0, E0=58.5, sigma_x=60.0)
    delay = stationary_packet_delay(free, packet, 24.0, 264.0, t_max=2400.0)
    assert abs(delay) < 1e-3


def test_stationary_delay_rejects_spectrum_reaching_zero():
    packet = WavePacket(x0=-300.0, E0=58.5, sigma_x=1.5)
    with pytest.raises(ValidationError):
        stationary_packet_delay(representative_stack(5), packet, 24.0, 264.0, 2400.0)
    wide = WavePacket(x0=-300.0, E0=58.5, sigma_x=60.0)
    with pytest.raises(ValidationError, match="t_max"):
        stationary_packet_delay(representative_stack(5), wide, 24.0, 264.0, 0.0)


def _fig9_points():
    """figures/fig9_points.csv's rows as {column: value}; its dressed stack is
    stacks/rep5_arc.json."""
    lines = (ROOT / "figures" / "fig9_points.csv").read_text().splitlines()
    columns, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    assert len(rows) == 3
    return [dict(zip(columns, map(float, row))) for row in rows]


def test_stationary_delay_reproduces_figure_9_predictions():
    """Figure 9's plans give its packet_pred_fs column to the last digit."""
    dressed = load_stack(ROOT / "stacks" / "rep5_arc.json")
    for point in _fig9_points():
        grid, packet, x_sep, x_d = plan_run(dressed, point["E0_meV"], sigma_x=90.0)
        delay = stationary_packet_delay(dressed, packet, x_sep, x_d, grid.t_final)
        assert delay == point["packet_pred_fs"]


def test_figure_9_point_replays_bit_for_bit():
    """Figure 9's 58.5 meV runs, stepped and in sine modes, give its delay_fs
    and transmitted_fraction exactly, so any change to the stepper's
    rounding shows here."""
    dressed = load_stack(ROOT / "stacks" / "rep5_arc.json")
    point, = (p for p in _fig9_points() if p["E0_meV"] == 58.5)
    grid, packet, x_sep, x_d = plan_run(dressed, 58.5, sigma_x=90.0)
    assert (grid.n_points, grid.n_steps) == (14153, 5529)
    result, *_ = measure_delay(dressed, grid, packet, x_sep, x_d)
    assert result.delay == point["delay_fs"] == 499.24910979979222
    assert result.transmitted_fraction == point["transmitted_fraction"]


def test_measure_delay_is_the_hand_written_sequence():
    """``measure_delay`` on a short dressed plan gives, bit for bit, the delay
    and both records of the sequence it owns: the run, its free-space control
    on ``free_reference`` and ``packet_delay`` of the two."""
    dressed = load_stack(ROOT / "stacks" / "rep5_arc.json")
    grid, packet, x_sep, x_d = plan = plan_run(dressed, 58.5, sigma_x=25.0, dx=0.5, dt=2.0)
    result, *records = measure_delay(dressed, *plan)
    run, free = (evolve(s, grid, packet, x_sep) for s in (dressed, free_reference(dressed)))
    assert repr(result) == repr(packet_delay(run, x_d, free))
    as_bytes = lambda rec: [np.asarray(value).tobytes() for value in vars(rec).values()]
    assert [as_bytes(rec) for rec in records] == [as_bytes(run), as_bytes(free)]
    assert result.transmitted_fraction > 1e-4 and records[0].left_outflow > 0.0


def test_stationary_delay_fails_through_the_arrival_rule():
    """A run too short for the centroid to reach the detector fails with the
    message of ``packet_delay``'s arrival rule."""
    stack = representative_stack(5)
    grid, packet, x_sep, x_d = plan_run(stack, 58.5, sigma_x=60.0)
    with pytest.raises(NumericError, match="never crossed the detector"):
        stationary_packet_delay(stack, packet, x_sep, x_d, 0.2 * grid.t_final)


def test_grid_and_packet_validation():
    with pytest.raises(ValidationError):
        Grid1D(x_min=1.0, x_max=-1.0, dx=0.1, dt=1.0, n_steps=10)
    with pytest.raises(ValidationError):
        Grid1D(x_min=-1.0, x_max=1.0, dx=-0.1, dt=1.0, n_steps=10)
    with pytest.raises(ValidationError):
        Grid1D(x_min=-1.0, x_max=1.0, dx=0.1, dt=1.0, n_steps=0)
    with pytest.raises(ValidationError):
        Grid1D(x_min=-300.0, x_max=300.0, dx=0.5, dt=1.0, n_steps=2.5)
    with pytest.raises(ValidationError):
        Grid1D(x_min=-300.0, x_max=300.0, dx=0.5, dt=1.0, n_steps=True)
    with pytest.raises(ValidationError):
        WavePacket(x0=0.0, E0=60.0, sigma_x=0.0)
    with pytest.raises(ValidationError):
        WavePacket(x0=0.0, E0=-3.0, sigma_x=60.0).k0(LEAD)


def test_evolve_validations():
    stack = _uniform_stack(10.0)
    grid = Grid1D(x_min=-200.0, x_max=200.0, dx=0.5, dt=1.0, n_steps=5)
    with pytest.raises(ValidationError, match="separator"):
        evolve(stack, grid, WavePacket(x0=-100.0, E0=60.0, sigma_x=15.0), x_sep=500.0)
    with pytest.raises(ValidationError, match="launch"):
        evolve(stack, grid, WavePacket(x0=-150.0, E0=60.0, sigma_x=15.0),
               x_sep=0.5 * stack.width + grid.dx)


def test_initial_state_normalized_and_centered():
    grid = Grid1D(x_min=-400.0, x_max=400.0, dx=0.25, dt=1.0, n_steps=1)
    packet = WavePacket(x0=-120.0, E0=58.5, sigma_x=30.0)
    psi = initial_state(grid, packet, LEAD)
    dens = np.abs(psi) ** 2
    assert grid.dx * dens.sum() == pytest.approx(1.0, rel=1e-12)
    assert grid.x[int(np.argmax(dens))] == pytest.approx(-120.0, abs=grid.dx)
