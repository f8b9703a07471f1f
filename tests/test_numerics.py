"""Bracketed roots on arrays.

The root finder narrows every bracket with one call of f per step; roots
known in closed form are its oracles, bisection's step count to the same
tolerance bounds its calls, and counted kernel calls on the reference
stack show the superlinear convergence its callers rely on.
"""

import math

import numpy as np
import pytest

from sltime import arc, kard, numerics
from sltime.errors import NumericError
from sltime.kard import PotentialCell, energy_at_phase
from sltime.medium import EnergyGrid, representative_cell, representative_stack
from sltime.numerics import bracket_roots


class Brackets:
    """Several scalar functions, one per bracket, as one f for
    ``bracket_roots``; counts its calls."""

    def __init__(self, cases):
        self.fs = [case[0] for case in cases]
        self.lo = np.array([case[1] for case in cases])
        self.hi = np.array([case[2] for case in cases])
        self.roots = np.array([case[3] for case in cases])
        self.calls = 0

    def __call__(self, x):
        assert isinstance(x, np.ndarray) and x.shape == self.lo.shape
        self.calls += 1
        return np.array([f(v) for f, v in zip(self.fs, x)])

    def solve(self, xtol):
        f_lo, f_hi = (np.array([f(v) for f, v in zip(self.fs, x)]) for x in (self.lo, self.hi))
        return bracket_roots(self, self.lo, self.hi, f_lo, f_hi, xtol)


KINK = 1.0 / 3.0
#: (f, lo, hi, root): smooth, kinked at the root with slopes 1e-2 and 1e2,
#: step-like, flat-then-steep; falling and rising; widths 2e-9 to 2e3.
ROOT_CASES = [
    (lambda x: math.cos(x) - x, 0.0, 1.0, 0.7390851332151607),
    (lambda x: x**3 - 2.0, -1000.0, 1000.0, 2.0 ** (1.0 / 3.0)),
    (lambda x: 0.01 * (x - KINK) if x < KINK else 100.0 * (x - KINK), -1.0, 2.0, KINK),
    (lambda x: math.tanh(1e4 * (0.123456789 - x)), 0.0, 1.0, 0.123456789),
    (lambda x: math.exp(50.0 * (x - 1.0)) - 1e-6, -10.0, 1.0, 1.0 + math.log(1e-6) / 50.0),
    (lambda x: x**9 - 0.5, 0.0, 1.0, 0.5 ** (1.0 / 9.0)),
    (lambda x: math.sin(x), math.pi - 1e-9, math.pi + 1e-9, math.pi),
]


def test_roots_land_within_xtol_in_one_mixed_call():
    xtol = 1e-12
    brackets = Brackets(ROOT_CASES)
    roots = brackets.solve(xtol)
    assert roots.shape == (len(ROOT_CASES),)
    assert np.all(np.abs(roots - brackets.roots) <= xtol)


def bisection_calls(f, lo, hi, xtol):
    """Calls of f that plain bisection makes to the same stopping rule."""
    f_lo, calls = f(lo), 0
    while True:
        mid = 0.5 * (lo + hi)
        if not (hi - lo > xtol and lo < mid < hi):
            return calls
        f_mid, calls = f(mid), calls + 1
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


@pytest.mark.parametrize("case", ROOT_CASES)
@pytest.mark.parametrize("xtol", [1e-6, 1e-12])
def test_no_more_calls_than_bisection_plus_one(case, xtol):
    brackets = Brackets([case])
    root = brackets.solve(xtol)
    assert abs(root[0] - case[3]) <= xtol
    assert brackets.calls <= bisection_calls(case[0], case[1], case[2], xtol) + 1


def test_smooth_roots_converge_superlinearly():
    smooth = [ROOT_CASES[0], ROOT_CASES[1], ROOT_CASES[5]]
    brackets = Brackets(smooth)
    brackets.solve(1e-13)
    assert brackets.calls <= 25  # bisection needs 40 to 54 steps here


def test_scalar_bracket_gives_scalar_and_passes_scalars():
    seen = []

    def f(x):
        seen.append(np.shape(x))
        return math.cos(float(x)) - float(x)

    root = bracket_roots(f, 0.0, 1.0, 1.0, math.cos(1.0) - 1.0, 1e-13)
    assert np.ndim(root) == 0 and abs(root - 0.7390851332151607) <= 1e-13
    assert set(seen) == {()}


def test_exact_zero_closes_its_bracket():
    f = Brackets([(lambda x: x - 0.5, 0.0, 1.0, 0.5)])
    assert f.solve(1e-13)[0] == 0.5
    assert f.calls == 1  # the regula falsi point is the root
    calls = []
    root = bracket_roots(lambda x: calls.append(x) or x, np.array([0.0, -1.0]),
                         np.array([1.0, 0.0]), np.array([0.0, -1.0]), np.array([1.0, 0.0]), 1e-13)
    assert list(root) == [0.0, 0.0] and not calls


def test_nan_from_f_raises():
    f = lambda x: np.where(x > 0.3, np.nan, x - 0.5)
    with pytest.raises(NumericError, match="NaN"):
        bracket_roots(f, 0.0, 1.0, -0.5, 0.5, 1e-13)


@pytest.mark.parametrize("f_lo, f_hi", [(math.nan, 1.0), (1.0, 2.0), (-1.0, -2.0)])
def test_end_values_must_bracket(f_lo, f_hi):
    with pytest.raises(NumericError):
        bracket_roots(lambda x: x, 0.0, 1.0, f_lo, f_hi, 1e-13)


class CountedModel:
    """A cell model that counts its trace calls."""

    def __init__(self, model):
        self.model = model
        self.trace_calls = 0

    def trace(self, E):
        self.trace_calls += 1
        return self.model.trace(E)


def test_superlinear_energy_at_phase_trace_calls(rep_band):
    model = CountedModel(PotentialCell(representative_cell(), representative_stack(5).outside))
    phis = np.arange(1, 10) * math.pi / 10.0
    E = energy_at_phase(model, rep_band, phis)
    assert model.trace_calls <= 20  # plain bisection to 1e-13 made 48
    phi = np.arccos(np.clip(0.5 * model.model.trace(E) * rep_band.parity, -1.0, 1.0))
    assert np.all(np.abs(phi - phis) <= 1e-9)


def test_superlinear_band_edge_polish_calls(monkeypatch, rep_stack):
    calls = []

    def counting(f, *args):
        return numerics.bracket_roots(lambda x: calls.append(x.size) or f(x), *args)

    monkeypatch.setattr(kard, "bracket_roots", counting)
    bands = kard.band_structure(rep_stack.core, rep_stack.outside,
                                grid=EnergyGrid.linear(1.0, 300.0, 6000))
    assert len(bands) == 2
    assert 0 < len(calls) <= 20  # plain bisection to 1e-12 made 37


def test_superlinear_rep5_design_cell_matrix_calls(monkeypatch, rep_band):
    calls = []
    kernel = arc.cell_matrix
    monkeypatch.setattr(arc, "cell_matrix", lambda *a, **k: calls.append(1) or kernel(*a, **k))
    arc.design_rule_of_thumb(representative_cell(), representative_stack(5).outside, rep_band)
    assert len(calls) <= 700  # with plain bisection to 1e-13, 3289
