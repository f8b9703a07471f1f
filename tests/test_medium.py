"""Layer/cell/stack validation, constants, and the stack file round trip."""

import json
import math

import numpy as np
import pytest
from hypothesis import given

from conftest import stacks
from sltime.errors import ValidationError
from sltime.medium import (
    CONSTANTS,
    CellSpec,
    EnergyGrid,
    Layer,
    StackSpec,
    load_stack,
    representative_cell,
    representative_stack,
    save_stack,
    stack_from_dict,
    stack_to_dict,
)


def test_constants_values():
    assert CONSTANTS.hbar == pytest.approx(658.2119569, abs=1e-7)
    assert CONSTANTS.hbar2_over_2m0 == pytest.approx(38.0998, abs=1e-4)


def test_velocity_matches_dispersion_slope():
    # v = dE/dk / hbar for E = c2 k^2 / m
    m = 0.067
    k = 0.3
    h = 1e-7
    e = lambda q: CONSTANTS.hbar2_over_2m0 * q * q / m
    slope = (e(k + h) - e(k - h)) / (2 * h)
    assert CONSTANTS.velocity(k, m) == pytest.approx(slope / CONSTANTS.hbar, rel=1e-9)


@pytest.mark.parametrize("bad", [
    dict(width=-1.0, potential=0.0, mass_ratio=0.067),
    dict(width=0.0, potential=0.0, mass_ratio=0.067),
    dict(width=3.0, potential=0.0, mass_ratio=0.0),
    dict(width=3.0, potential=0.0, mass_ratio=-0.1),
])
def test_layer_rejects_nonphysical(bad):
    with pytest.raises(ValidationError):
        Layer(bad["width"], bad["potential"], bad["mass_ratio"])


def test_symmetric_flag_requires_mirror_layout():
    a = Layer(2.0, 100.0, 0.08)
    b = Layer(3.0, 0.0, 0.067)
    with pytest.raises(ValidationError):
        CellSpec((a, b), symmetric=True)
    CellSpec((a, b), symmetric=False)  # fine when not claimed
    CellSpec((b, a, b), symmetric=True)


def test_mirrored_cell_reverses_layers():
    cell = CellSpec((Layer(1.0, 0.0, 0.067), Layer(2.0, 290.0, 0.0919)), symmetric=False)
    assert cell.mirrored().layers == tuple(reversed(cell.layers))


def test_stack_needs_at_least_one_replica():
    with pytest.raises(ValidationError):
        StackSpec(core=representative_cell(), replicas=0,
                  outside=Layer(9.5, 0.0, 0.067))


def test_representative_stack_geometry():
    stack = representative_stack()
    assert stack.core.width == pytest.approx(9.5)
    assert stack.width == pytest.approx(47.5)
    assert stack.core.symmetric


def test_energy_grid_validation():
    with pytest.raises(ValidationError):
        EnergyGrid(np.array([1.0]))
    with pytest.raises(ValidationError):
        EnergyGrid(np.array([2.0, 1.0]))
    with pytest.raises(ValidationError):
        EnergyGrid(np.array([-1.0, 1.0]))
    g = EnergyGrid.linear(1.0, 10.0, 10)
    assert g.count == 10 and g.e_min == 1.0 and g.e_max == 10.0


@given(stacks())
def test_stack_dict_round_trip(stack):
    again = stack_from_dict(stack_to_dict(stack))
    assert again == stack


def test_stack_file_round_trip(tmp_path):
    stack = representative_stack()
    path = tmp_path / "s.json"
    save_stack(stack, path)
    assert load_stack(path) == stack
    # schema keys exactly as documented
    data = json.loads(path.read_text())
    assert set(data) == {"outside", "core", "replicas", "left_arc", "right_arc"}
    assert set(data["core"]["layers"][0]) == {"width_nm", "V_meV", "mass_ratio"}


def test_load_stack_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ValidationError, match="nope.json"):
        load_stack(missing)


def test_load_stack_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_stack(path)


def test_stack_from_dict_rejects_missing_keys():
    with pytest.raises(ValidationError, match="missing key"):
        stack_from_dict({"core": {"layers": []}})
