"""Adaptive Simpson quadrature, refined level by level on arrays.

The integrand is called once per level with every open panel's new
points, so the number of calls is bounded by the depth limit, not by the
number of panels.  Closed forms are the oracles: Simpson's rule is exact on
a cubic, and a kinked complex exponential integrates by parts.
"""

import cmath
import math

import numpy as np
import pytest

from sltime import numerics, scattering
from sltime.errors import NumericError
from sltime.medium import representative_stack
from sltime.numerics import adaptive_simpson


class Counted:
    """Wraps an integrand; records the shape of every argument it gets."""

    def __init__(self, f):
        self.f = f
        self.shapes = []

    def __call__(self, x):
        assert isinstance(x, np.ndarray)
        self.shapes.append(x.shape)
        return self.f(x)


def test_cubic_is_exact():
    f = Counted(lambda x: 2.0 * x**3 - x**2 + 3.0 * x - 1.0)
    got = adaptive_simpson(f, -1.0, 2.0, tol=1e-12)
    F = lambda x: 0.5 * x**4 - x**3 / 3.0 + 1.5 * x**2 - x
    assert got == pytest.approx(F(2.0) - F(-1.0), rel=1e-14)
    assert len(f.shapes) == 2  # the first refinement already agrees


def test_kinked_oscillation_with_breakpoint_matches_closed_form():
    omega, c, a, b, tol = 7.0, 0.6, -1.0, 2.0, 1e-9

    def G(x):  # an antiderivative of (x - c) e^{i omega x}
        return cmath.exp(1j * omega * x) * ((x - c) / (1j * omega) + 1.0 / omega**2)

    exact = -(G(c) - G(a)) + (G(b) - G(c))
    f = Counted(lambda x: np.abs(x - c) * np.exp(1j * omega * x))
    got = adaptive_simpson(f, a, b, tol=tol, breakpoints=[c, 5.0, c])
    assert abs(got - exact) <= tol
    assert len(f.shapes) <= 41


@pytest.mark.parametrize("max_depth", [12, 40])
def test_integrand_gets_arrays_once_per_level(max_depth):
    # sqrt has an unbounded slope at 0, so panels there refine many levels deep
    f = Counted(np.sqrt)
    got = adaptive_simpson(f, 0.0, 1.0, tol=1e-4, max_depth=max_depth)
    assert got == pytest.approx(2.0 / 3.0, abs=1e-4)
    assert len(f.shapes) <= max_depth + 1
    assert sum(math.prod(s) for s in f.shapes[1:]) % 2 == 0  # two points a panel


def test_exhausted_depth_raises_after_max_depth_plus_one_calls():
    f = Counted(np.sqrt)
    with pytest.raises(NumericError, match="failed to converge"):
        adaptive_simpson(f, 0.0, 1.0, tol=1e-15, max_depth=3)
    assert len(f.shapes) == 4


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 1.0), (0.0, math.nan)])
def test_empty_or_reversed_interval_raises(a, b):
    with pytest.raises(NumericError):
        adaptive_simpson(np.sqrt, a, b)


def test_dwell_density_is_called_on_arrays(monkeypatch):
    seen = []

    def counting(f, *args, **kwargs):
        wrapped = Counted(f)
        seen.append(wrapped)
        return numerics.adaptive_simpson(wrapped, *args, **kwargs)

    monkeypatch.setattr(scattering, "adaptive_simpson", counting)
    scattering.dwell_time(representative_stack(), 52.809940510590266)  # sharpest resonance
    (density,) = seen
    assert 1 < len(density.shapes) <= 41
