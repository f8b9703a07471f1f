"""Shared fixtures, strategies, and the acceptance-report hook."""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

import sltime.tdse
from sltime.kard import band_structure
from sltime.medium import CellSpec, EnergyGrid, Layer, StackSpec, representative_stack
from sltime.playmodel import PLAY_MODEL
from sltime.tdse import Grid1D, WavePacket

settings.register_profile(
    "research",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.load_profile("research")


# --- strategies --------------------------------------------------------------

def layers(min_v: float = 0.0, max_v: float = 400.0) -> st.SearchStrategy[Layer]:
    return st.builds(
        Layer,
        st.floats(0.5, 8.0),
        st.floats(min_v, max_v),
        st.floats(0.04, 0.15),
    )


@st.composite
def symmetric_cells(draw) -> CellSpec:
    """Mirror-symmetric cells of 1, 3, or 5 layers."""
    half = draw(st.lists(layers(), min_size=1, max_size=2))
    center = draw(layers())
    seq = tuple(half) + (center,) + tuple(reversed(half))
    if draw(st.booleans()):
        seq = (center,)
    return CellSpec(seq, symmetric=True)


@st.composite
def asymmetric_cells(draw) -> CellSpec:
    seq = tuple(draw(st.lists(layers(), min_size=2, max_size=4)))
    return CellSpec(seq, symmetric=False)


@st.composite
def stacks(draw, max_replicas: int = 4) -> StackSpec:
    cell = draw(st.one_of(symmetric_cells(), asymmetric_cells()))
    return StackSpec(
        core=cell,
        replicas=draw(st.integers(1, max_replicas)),
        outside=Layer(draw(st.floats(2.0, 12.0)), 0.0, draw(st.floats(0.04, 0.15))),
    )


#: Energies safely inside the closed-form model's band, 0.3 meV clear of
#: both edges, where mu diverges.
play_energies = st.floats(50.3, 74.7)


@contextlib.contextmanager
def stepping():
    """``evolve`` by Crank-Nicolson steps on every stack: its exact
    uniform-medium producer declines, as it does for a state with too many
    sine modes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sltime.tdse, "_uniform_sums", lambda *args: None)
        yield


def closed_grid(stack: StackSpec, grid: Grid1D, packet: WavePacket) -> Grid1D:
    """The closed box an open ``plan_run`` grid is cut from, on its lattice: the
    right wall at the first point at or right of ``tdse._reach`` of the run,
    where a uniform medium's sine-mode box ends too, and the left wall nearest
    that wall's mirror image about x0, moved right by twice -w/2 - x0, so that
    neither the transmitted nor the reflected packet could reach a wall."""
    right = sltime.tdse._reach(packet, stack.outside, grid.t_final)
    mirror = 2.0 * packet.x0 - right + 2.0 * (-0.5 * stack.width - packet.x0)
    return Grid1D(grid.x_min - grid.dx * round((grid.x_min - mirror) / grid.dx),
                  grid.x_min + grid.dx * math.ceil((right - grid.x_min) / grid.dx),
                  grid.dx, grid.dt, grid.n_steps)


# --- fixtures ----------------------------------------------------------------

@pytest.fixture(scope="session")
def rep_stack() -> StackSpec:
    return representative_stack(5)


@pytest.fixture(scope="session")
def rep_band(rep_stack):
    bands = band_structure(rep_stack.core, rep_stack.outside,
                           grid=EnergyGrid.linear(1.0, 300.0, 6000))
    return bands[0]


@pytest.fixture(scope="session")
def play_band():
    bands = band_structure(PLAY_MODEL, grid=EnergyGrid.linear(1.0, 300.0, 6000))
    return bands[0]


# --- acceptance reporting ------------------------------------------------------
# test_acceptance.py records one line per criterion; the summary hook prints
# them after the run so the verdicts are visible even when everything passes.

ACCEPTANCE_LOG: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_LOG[number] = (passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_LOG):
        passed, detail = ACCEPTANCE_LOG[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d}: {verdict} - {detail}")
