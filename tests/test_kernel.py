"""Array-valued energies: one kernel call against the one-energy calls.

Every transfer-matrix function takes a scalar energy or an array.  A scalar
branches in Python where an array is masked, with the same elementary
functions, so element i of an array call must equal the 0-d call at E[i]:
here to 1e-14 relative to the norm |m11| + |m21| of a cell matrix, and for
a stack to the product of its cells' norms, which bounds the roundoff of a
matrix product.  The stencil derivatives evaluate even a single energy as
an array of five.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import assume, given, strategies as st

from conftest import stacks
from sltime.kard import band_structure, kard_derivatives
from sltime.medium import EnergyGrid, representative_stack
from sltime.tmatrix import cell_matrix, stack_matrix

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
        return np.prod([_norm(cell_matrix(E, cell, stack.outside)) for cell in stack.cells()])

    _assert_elementwise(lambda E: stack_matrix(E, stack), lambda E: stack_matrix(E, stack),
                        factors, energies)


def test_array_shape_is_kept():
    stack = representative_stack()
    E = np.linspace(50.0, 60.0, 12).reshape(3, 4)
    M = stack_matrix(E, stack)
    assert M.m11.shape == M.m21.shape == (3, 4)
    one = stack_matrix(55.0, stack)
    assert isinstance(one.m11, complex) and isinstance(one.m21, complex)


@given(stacks(), st.lists(st.floats(0.02, 0.98), min_size=1, max_size=8))
def test_kard_derivatives_array_equals_scalar_calls(stack, fractions):
    bands = band_structure(stack.core, stack.outside, grid=EnergyGrid.linear(1.0, 380.0, 1500))
    bands = [b for b in bands if b.lower_is_edge and b.upper_is_edge and b.width > 0.5]
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


def test_stationary_commands_never_load_scipy(tmp_path):
    """`python -X importtime` lists every module the process imported."""
    commands = [
        ["--version"],
        ["kard", "--stack", "stacks/rep5.json", "-o", str(tmp_path / "kard.csv")],
        ["transmission", "--stack", "stacks/rep5.json", "-o", str(tmp_path / "t.csv")],
        ["phasetime", "--stack", "stacks/rep5.json", "-o", str(tmp_path / "pt.csv")],
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
        assert not [m for m in imported if m.split(".")[0] == "scipy"], argv
