"""Array-valued energies: one kernel call against the one-energy calls.

Every transfer-matrix function takes a scalar energy or an array.  A scalar
branches in Python where an array is masked, with the same elementary
functions, so element i of an array call must equal the 0-d call at E[i]:
here to 1e-14 relative to the norm |m11| + |m21| of a cell matrix, and for
a stack to the product of its cells' norms, which bounds the roundoff of a
matrix product.  The same holds for the exact energy derivatives the
kernel carries when handed a jet energy, which are checked here against
finite differences of the values, also where k^2 w^2 of a layer crosses
zero and where its series gives way to the closed form.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from conftest import stacks
from sltime.kard import band_structure, kard_derivatives
from sltime.medium import CellSpec, EnergyGrid, Layer, StackSpec, representative_cell, representative_stack
from sltime.timing import bloch_time, envelopes, free_time, phase_time
from sltime.tmatrix import _cos_and_sinc, _sinc_slopes, cell_matrix, energy_jet, stack_matrix

ROOT = Path(__file__).resolve().parent.parent
RTOL = 1e-14

energy_arrays = st.lists(st.floats(5.0, 380.0), min_size=1, max_size=12).map(np.array)


def _norm(M) -> float:
    return abs(M.m11) + abs(M.m21)


def _assert_elementwise(array_call, scalar_call, scale_of, energies):
    M = array_call(energies)
    for i, E in enumerate(energies):
        one = scalar_call(float(E))
        scale = scale_of(float(E))
        assert abs(M.m11[i] - one.m11) <= RTOL * scale
        assert abs(M.m21[i] - one.m21) <= RTOL * scale


@given(stacks(), energy_arrays)
def test_cell_matrix_array_equals_scalar_calls(stack, energies):
    def one(E):
        return cell_matrix(E, stack.core, stack.outside)

    _assert_elementwise(one, one, lambda E: _norm(one(E)), energies)


@given(stacks(), energy_arrays)
def test_stack_matrix_array_equals_scalar_calls(stack, energies):
    def factors(E):
        # the core's norm counts once per replica: a product of N matrices
        # can round N times
        ends = [cell for cell in (stack.left_arc, stack.right_arc) if cell is not None]
        return (_norm(cell_matrix(E, stack.core, stack.outside)) ** stack.replicas
                * np.prod([_norm(cell_matrix(E, cell, stack.outside)) for cell in ends]))

    _assert_elementwise(lambda E: stack_matrix(E, stack), lambda E: stack_matrix(E, stack),
                        factors, energies)


def test_array_shape_is_kept():
    stack = representative_stack(5)
    E = np.linspace(50.0, 60.0, 12).reshape(3, 4)
    M = stack_matrix(E, stack)
    assert M.m11.shape == M.m21.shape == (3, 4)
    one = stack_matrix(55.0, stack)
    assert isinstance(one.m11, complex) and isinstance(one.m21, complex)


#: A cell where squaring |M21| with ``** 2`` (C pow for a scalar, x * x for an
#: array) puts mu' of the scalar and the array call 2.5e-13 relative apart.
_POW_CASE = StackSpec(
    core=CellSpec((Layer(7.8642103952844415, 0.02, 0.14492211420865111),) * 2),
    replicas=1,
    outside=Layer(2.0, 0.0, 0.08114346822400878),
)


@given(stacks(), st.lists(st.floats(0.02, 0.98), min_size=1, max_size=8))
@example(_POW_CASE, [0.15153382382102337])
def test_kard_derivatives_array_equals_scalar_calls(stack, fractions):
    bands = band_structure(stack.core, stack.outside, grid=EnergyGrid.linear(1.0, 380.0, 1500))
    bands = [b for b in bands if 1.0 < b.lower and b.upper < 380.0]
    assume(bands)
    band = bands[0]
    energies = band.lower + np.array(fractions) * band.width
    d = kard_derivatives(stack.core, stack.outside, energies, band=band)
    for i, E in enumerate(energies):
        one = kard_derivatives(stack.core, stack.outside, float(E), band=band)
        for field in ("phi_p", "phi_pp", "mu_p"):
            a, b = getattr(d, field)[i], getattr(one, field)
            assert abs(a - b) <= RTOL * abs(b)
        for field in ("phi", "mu"):
            a, b = getattr(d.params, field)[i], getattr(one.params, field)
            assert abs(a - b) <= RTOL * abs(b)
    # bloch_time, the N = 1 case of the timing evaluation, agrees bit for bit
    tau = bloch_time(stack.core, stack.outside, energies, band=band)
    one = [bloch_time(stack.core, stack.outside, float(E), band=band) for E in energies]
    assert one == tau.tolist()


def test_timing_array_equals_scalar_calls_on_rep5(rep_stack, rep_band):
    """On 3000 rep5 energies across band 1, each scalar call equals its
    element of the array call exactly, and is a Python float."""
    core, lead, n = rep_stack.core, rep_stack.outside, rep_stack.replicas
    energies = np.linspace(*rep_band.interior(5e-3), 3000)
    tau = phase_time(core, lead, n, energies, band=rep_band)
    env = np.stack(envelopes(core, lead, n, energies, band=rep_band), axis=1)
    d = kard_derivatives(core, lead, energies, band=rep_band)
    free = free_time(rep_stack.width, energies, lead)
    for i, E in enumerate(energies.tolist()):
        one_tau = phase_time(core, lead, n, E, band=rep_band)
        assert type(one_tau) is float and one_tau == tau[i]
        one_env = envelopes(core, lead, n, E, band=rep_band)
        assert [type(x) for x in one_env] == [float] * 3 and one_env == tuple(env[i])
        one = kard_derivatives(core, lead, E, band=rep_band)
        assert (one.phi_p, one.phi_pp, one.mu_p) == (d.phi_p[i], d.phi_pp[i], d.mu_p[i])
        assert {type(x) for x in (one.phi_p, one.phi_pp, one.mu_p)} == {float}
        one_free = free_time(rep_stack.width, E, lead)
        assert type(one_free) is float and one_free == free[i]


def test_transparent_cell_array_equals_scalar_calls_at_mu_zero():
    """A 5 nm cell of rep5's lead material has M21 exactly 0 at 50.06 meV
    (as at about a third of a fine band-1 grid), so mu = 0 and sinh(2 mu) = 0
    there.  The scalar call takes mu' = 0, its limit, without a 0/0, and
    equals the array call bit for bit; the phase time is finite."""
    lead = representative_stack(5).outside
    cell = CellSpec((Layer(5.0, lead.potential, lead.mass_ratio),))
    band = band_structure(cell, lead, grid=EnergyGrid.linear(1.0, 300.0, 600))[0]
    E = 50.06
    assert cell_matrix(E, cell, lead).m21 == 0.0
    one = kard_derivatives(cell, lead, E, band=band)
    d = kard_derivatives(cell, lead, np.array([E]), band=band)
    assert (one.params.mu, one.mu_p) == (0.0, 0.0)
    for field in ("phi_p", "phi_pp", "mu_p"):
        assert type(getattr(one, field)) is float
        assert getattr(one, field) == getattr(d, field)[0]
    for field in ("phi", "mu", "chi"):
        assert getattr(one.params, field) == getattr(d.params, field)[0]
    tau = phase_time(cell, lead, 5, E, band=band)
    assert math.isfinite(tau) and tau == phase_time(cell, lead, 5, np.array([E]), band=band)[0]


def test_stationary_commands_never_load_scipy(tmp_path):
    """`python -X importtime` lists every module the process imported
    through the import statement.

    The wave-packet command, on a coarse grid, loads no scipy module either,
    and no command loads ``numpy.ma`` (which ``np.unique`` would import).
    ``decimal`` is not loaded: only a sample that the |t_N|^2 check flags
    asks for its 40-digit reference, and none is flagged here.  The layers
    themselves no longer appear in the listing: ``import sltime`` registers
    them lazily, and a layer's body runs outside the import timer.  The
    imports made from inside that body are listed, so numpy appears for
    every command that computes, and a scipy import would too."""
    commands = [
        ["--version"],
        ["kard", "--stack", "stacks/rep5.json", "-o", str(tmp_path / "kard.csv")],
        ["transmission", "--stack", "stacks/rep5.json", "-o", str(tmp_path / "t.csv")],
        ["phasetime", "--stack", "stacks/rep5.json", "-o", str(tmp_path / "pt.csv")],
        ["arc", "design", "--stack", "stacks/rep5.json", "-o", str(tmp_path / "arc.json")],
        ["tdse", "--stack", "stacks/rep5.json", "--E0", "58.5", "--dx", "1", "--dt", "4",
         "-o", str(tmp_path / "run")],
    ]
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "sltime", *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "sltime.cli" in imported  # the listing really covers the run
        if argv != ["--version"]:  # imported by a lazily loaded layer
            assert "numpy" in imported, argv
        assert not [m for m in imported if m.split(".")[0] == "scipy"], argv
        assert not [m for m in imported if m.split(".")[:2] == ["numpy", "ma"]], argv
        assert not {"decimal", "_decimal", "_pydecimal"} & set(imported), argv


def _five_point(f, E: float, h: float):
    """First and second derivatives of f at E from five-point stencils, O(h^4)."""
    fm2, fm1, f0, fp1, fp2 = (f(E + k * h) for k in (-2, -1, 0, 1, 2))
    return ((8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * h),
            (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h))


#: A well, a 40 meV step and a 60 meV step: k^2 w^2 of the 5 nm layer is 1,
#: where its series gives way to the closed form, at 15.24 meV, and k^2 of
#: the 2 nm layer crosses zero at 40 meV.
_JET_CELL = CellSpec((Layer(5.0, 0.0, 0.1), Layer(2.0, 40.0, 0.08), Layer(3.0, 60.0, 0.067)))


@pytest.mark.parametrize("E", [5.0, 15.2399, 15.2400, 40.0 - 1e-3, 40.0, 40.0 + 1e-9, 60.0, 150.0])
def test_jet_derivatives_match_finite_differences(E):
    stack = StackSpec(core=_JET_CELL, replicas=2, outside=Layer(9.5, 0.0, 0.067),
                      right_arc=representative_cell())
    J = stack_matrix(energy_jet(E, second=True), stack)
    for name in ("m11", "m21"):
        jet = getattr(J, name)
        value = lambda e: getattr(stack_matrix(e, stack), name)
        assert jet.v == value(E)  # the value part is the plain kernel's
        d1, d2 = _five_point(value, E, 1e-3)
        scale = abs(jet.v) + abs(jet.d1) + abs(jet.d2)
        assert abs(jet.d1 - d1) <= 1e-10 * scale
        assert abs(jet.d2 - d2) <= 1e-7 * scale


def _exact_sinc_slopes(x: float, w: float) -> tuple[float, float]:
    """w^3 S'(x) and w^5 S''(x) for S(x) = sum_n (-x)^n / (2n + 1)!, from 40
    terms in exact rational arithmetic."""
    X = Fraction(x)
    s1 = sum(Fraction((-1) ** n * n, factorial(2 * n + 1)) * X ** (n - 1) for n in range(1, 40))
    s2 = sum(Fraction((-1) ** n * n * (n - 1), factorial(2 * n + 1)) * X ** (n - 2)
             for n in range(2, 40))
    return float(w**3 * s1), float(w**5 * s2)


def test_sinc_slopes_match_their_series_on_both_sides_of_the_switch():
    """d/dk^2 and d2/d(k^2)^2 of sin(kw)/k, where k^2 w^2 = x: the short series
    below |x| = 1 and the closed forms above it, scalar and array alike."""
    w = 2.0
    x = np.array([1e-8, 1e-3, 0.3, 0.999, 1.001, 2.5, 4.0])
    x = np.concatenate([x, -x])
    ksq = x / (w * w)
    c, s = _cos_and_sinc(ksq, w)
    s1, s2 = _sinc_slopes(ksq, w, c, s)
    for i, k2 in enumerate(ksq):
        e1, e2 = _exact_sinc_slopes(float(k2) * w * w, w)
        one = _sinc_slopes(float(k2), w, *_cos_and_sinc(float(k2), w))
        assert (one[0], one[1]) == (s1[i], s2[i])
        assert abs(s1[i] - e1) <= 1e-14 * abs(e1)
        assert abs(s2[i] - e2) <= 5e-14 * abs(e2)
