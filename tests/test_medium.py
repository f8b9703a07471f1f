"""Layer/cell/stack validation, constants, and the stack file round trip."""

import importlib
import inspect
import json
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given

import sltime
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


def _public_callables():
    """(qualified name, callable) for every public function, class (other
    than an exception) and public method defined in the sltime package's
    modules."""
    for info in pkgutil.iter_modules(sltime.__path__):
        if info.name.startswith("_"):
            continue  # __main__ runs the command line on import
        module = importlib.import_module(f"sltime.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj) and not issubclass(obj, Exception):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_physical_constants_are_fixed():
    """No public callable takes the constants as a parameter: every module
    reads the one ``CONSTANTS``."""
    found = dict(_public_callables())
    assert "sltime.tmatrix.cell_matrix" in found and "sltime.tdse.WavePacket.k0" in found
    takes = [name for name, obj in found.items()
             if "consts" in inspect.signature(obj).parameters]
    assert takes == []


def test_stack_interfaces_span_the_centred_stack():
    stack = representative_stack(3)
    edges = stack.interfaces()
    assert len(edges) == len(stack.segments()) + 1
    assert edges[0] == -0.5 * stack.width and edges[-1] == pytest.approx(0.5 * stack.width)
    np.testing.assert_allclose(np.diff(edges), [l.width for l in stack.segments()])


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


def test_stack_needs_at_least_one_replica():
    with pytest.raises(ValidationError):
        StackSpec(core=representative_cell(), replicas=0,
                  outside=Layer(9.5, 0.0, 0.067))


def test_representative_stack_geometry():
    stack = representative_stack(5)
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
    assert g.count == 10 and g.samples[0] == 1.0 and g.samples[-1] == 10.0


@given(stacks())
def test_stack_dict_round_trip(stack):
    again = stack_from_dict(stack_to_dict(stack))
    assert again == stack


def test_stack_file_round_trip(tmp_path):
    stack = representative_stack(5)
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
