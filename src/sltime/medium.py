"""Units, physical constants, and validated structure descriptions.

Unit conventions, fixed project-wide: energy in meV, length in nm, time in
fs, effective mass as a ratio to the bare electron mass.  The energy zero is
the conduction-band bottom of the (identical) semi-infinite leads, so any
E > 0 is a propagating lead channel.  In these units hbar and hbar^2/2m_e
are fixed numbers, not parameters: every module reads them from the one
``CONSTANTS``, and a material enters only through its layers' mass ratio
and band offset.

A superlattice is described bottom-up: a ``Layer`` is a piecewise-constant
slab, a ``CellSpec`` is one unit cell (an ordered stack of layers), and a
``StackSpec`` is N replicas of a core cell with optional matching cells on
each end, embedded between the leads.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "CONSTANTS",
    "Layer",
    "CellSpec",
    "StackSpec",
    "EnergyGrid",
    "stack_to_dict",
    "stack_from_dict",
    "load_stack",
    "save_stack",
    "representative_cell",
    "representative_stack",
]


@dataclass(frozen=True)
class PhysConstants:
    """The fixed constants of the package units (meV, nm, fs); the one
    instance is ``CONSTANTS``.

    hbar            : reduced Planck constant, meV*fs
    hbar2_over_2m0  : hbar^2 / (2 m_e), meV*nm^2
    """

    hbar: float = 658.2119569
    hbar2_over_2m0: float = 38.0998

    def velocity(self, k: float, mass_ratio: float) -> float:
        """Group velocity hbar*k/m* in nm/fs for a plane wave in a uniform layer."""
        return 2.0 * self.hbar2_over_2m0 * k / (self.hbar * mass_ratio)


CONSTANTS = PhysConstants()


@dataclass(frozen=True)
class Layer:
    """One uniform slab: width (nm), band offset V (meV), m*/m_e ratio."""

    width: float
    potential: float
    mass_ratio: float

    def __post_init__(self) -> None:
        if not (0 < self.width < math.inf):
            raise ValidationError(f"width must be finite and positive, got {self.width}")
        if not (0 < self.mass_ratio < math.inf):
            raise ValidationError(f"mass_ratio must be finite and positive, got {self.mass_ratio}")
        if not math.isfinite(self.potential):
            raise ValidationError(f"non-finite potential {self.potential}")


def _layers_mirror_equal(layers: Sequence[Layer], rtol: float = 1e-12) -> bool:
    for a, b in zip(layers, reversed(layers)):
        for x, y in ((a.width, b.width), (a.potential, b.potential), (a.mass_ratio, b.mass_ratio)):
            scale = max(abs(x), abs(y), 1.0)
            if abs(x - y) > rtol * scale:
                return False
    return True


@dataclass(frozen=True)
class CellSpec:
    """A unit potential cell: ordered layers, plus a declared mirror symmetry."""

    layers: tuple[Layer, ...]
    symmetric: bool = False

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if len(layers) == 0:
            raise ValidationError("cell needs at least one layer")
        if self.symmetric and not _layers_mirror_equal(layers):
            raise ValidationError("symmetry flag contradicts layers")

    @property
    def width(self) -> float:
        return sum(l.width for l in self.layers)


def _integer(value, name: str, least: int, most: float = math.inf) -> int:
    """``value`` as an int, if it is an integer in least..most; a count or
    an index such as N, m or p.  A bool or a float, even 5.0, is refused:
    the N-cell closed forms hold only for whole numbers of cells."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {name} = {value}")
    if value > most:
        raise ValidationError(f"{name} must be <= {most}, got {name} = {value}")
    return int(value)


@dataclass(frozen=True)
class StackSpec:
    """A finite superlattice: N core replicas, optional end cells, uniform leads.

    The leads are identical on both sides (no bias), described by ``outside``:
    its potential sets the energy reference and is normally 0.  ``segments``
    and ``tmatrix.stack_matrix`` run left end cell, N cores, right end cell.
    """

    core: CellSpec
    replicas: int
    outside: Layer
    left_arc: CellSpec | None = None
    right_arc: CellSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "replicas", _integer(self.replicas, "replicas", 1))

    @property
    def width(self) -> float:
        w = self.replicas * self.core.width
        if self.left_arc is not None:
            w += self.left_arc.width
        if self.right_arc is not None:
            w += self.right_arc.width
        return w

    def segments(self) -> list[Layer]:
        """Flat layer sequence of the scattering region, left to right."""
        left = self.left_arc.layers if self.left_arc is not None else ()
        right = self.right_arc.layers if self.right_arc is not None else ()
        return [*left, *self.core.layers * self.replicas, *right]

    def interfaces(self) -> np.ndarray:
        """Positions (nm) of the len(segments()) + 1 layer interfaces, left
        face first, with the stack centred on the origin: [-W/2, ..., W/2]."""
        widths = [layer.width for layer in self.segments()]
        return -0.5 * self.width + np.concatenate([[0.0], np.cumsum(widths)])


@dataclass(frozen=True)
class EnergyGrid:
    """Strictly increasing energy samples, all above the lead band bottom
    ``band_bottom`` (meV; 0 for the usual unbiased leads)."""

    samples: np.ndarray
    band_bottom: float = 0.0

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < 2:
            raise ValidationError("grid needs at least 2 samples")
        if not np.all(np.diff(samples) > 0):
            raise ValidationError("grid samples must be strictly increasing")
        if not (samples[0] > self.band_bottom):
            raise ValidationError(f"grid starts at {samples[0]} meV, at or below the lead "
                                  f"band bottom ({self.band_bottom} meV)")

    @classmethod
    def linear(cls, e_min: float, e_max: float, count: int,
               band_bottom: float = 0.0) -> "EnergyGrid":
        if not e_min < e_max:
            raise ValidationError(f"need e_min < e_max, got [{e_min}, {e_max}]")
        return cls(np.linspace(e_min, e_max, _integer(count, "count", 2)), band_bottom)

    @property
    def count(self) -> int:
        return int(self.samples.size)


# --- stack file format -----------------------------------------------------

def _layer_to_dict(layer: Layer) -> dict:
    return {"width_nm": layer.width, "V_meV": layer.potential, "mass_ratio": layer.mass_ratio}


def _entry(d, what: str, keys: tuple[str, ...]) -> dict:
    """d, checked to be a JSON object with no key outside ``keys``."""
    if not isinstance(d, dict):
        raise ValidationError(f"{what} must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise ValidationError(f"{what} has unknown key(s) {unknown}; allowed: {list(keys)}")
    return d


def _number(d: dict, key: str) -> float:
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"layer '{key}' must be a number, got {value!r}")
    return float(value)


def _layer_from_dict(d: dict) -> Layer:
    d = _entry(d, "layer entry", ("width_nm", "V_meV", "mass_ratio"))
    try:
        return Layer(_number(d, "width_nm"), _number(d, "V_meV"), _number(d, "mass_ratio"))
    except KeyError as exc:
        raise ValidationError(f"layer entry missing key {exc}") from exc


def _cell_to_dict(cell: CellSpec) -> dict:
    return {"layers": [_layer_to_dict(l) for l in cell.layers], "symmetric": cell.symmetric}


def _cell_from_dict(d: dict) -> CellSpec:
    d = _entry(d, "cell entry", ("layers", "symmetric"))
    if "layers" not in d:
        raise ValidationError("cell entry missing 'layers'")
    symmetric = d.get("symmetric", False)
    if not isinstance(symmetric, bool):
        raise ValidationError(f"cell 'symmetric' must be true or false, got {symmetric!r}")
    return CellSpec(tuple(_layer_from_dict(l) for l in d["layers"]), symmetric=symmetric)


def stack_to_dict(stack: StackSpec) -> dict:
    return {
        "outside": _layer_to_dict(stack.outside),
        "core": _cell_to_dict(stack.core),
        "replicas": stack.replicas,
        "left_arc": None if stack.left_arc is None else _cell_to_dict(stack.left_arc),
        "right_arc": None if stack.right_arc is None else _cell_to_dict(stack.right_arc),
    }


def stack_from_dict(d: dict) -> StackSpec:
    d = _entry(d, "stack file", ("outside", "core", "replicas", "left_arc", "right_arc"))
    for key in ("outside", "core", "replicas"):
        if key not in d:
            raise ValidationError(f"stack file missing key '{key}'")
    return StackSpec(
        core=_cell_from_dict(d["core"]),
        replicas=d["replicas"],
        outside=_layer_from_dict(d["outside"]),
        left_arc=None if d.get("left_arc") is None else _cell_from_dict(d["left_arc"]),
        right_arc=None if d.get("right_arc") is None else _cell_from_dict(d["right_arc"]),
    )


def load_stack(path: str | Path) -> StackSpec:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"stack file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"stack file {path} is not valid JSON: {exc}") from exc
    return stack_from_dict(data)


def save_stack(stack: StackSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(stack_to_dict(stack), indent=2) + "\n")


# --- representative structure ----------------------------------------------

#: Lead layer used by the representative stack: GaAs, energy zero at its
#: conduction-band bottom.  Leads are semi-infinite: nothing reads the width.
GAAS_MASS = 0.067
ALGAAS_MASS = 0.0919
ALGAAS_OFFSET_MEV = 290.0


def representative_cell() -> CellSpec:
    """A representative GaAs/AlGaAs superlattice unit cell.

    Well-centered and mirror symmetric: half well / barrier / half well.
    Centering the barrier makes the single cell strictly reflective below
    the barrier top (no cell-internal resonator), so its reflectivity angle
    stays positive across the low bands; and since the well material equals
    the lead material, an N-cell array is physically just N barriers, the
    outermost half wells blending into the leads.  The numbers are
    representative of GaAs/Al(0.3)Ga(0.7)As transport structures, not a
    published device.
    """
    half_well = Layer(3.25, 0.0, GAAS_MASS)
    barrier = Layer(3.0, ALGAAS_OFFSET_MEV, ALGAAS_MASS)
    return CellSpec((half_well, barrier, half_well), symmetric=True)


def representative_stack(replicas: int) -> StackSpec:
    """The representative N-cell array between GaAs leads, no end cells."""
    return StackSpec(
        core=representative_cell(),
        replicas=replicas,
        outside=Layer(9.5, 0.0, GAAS_MASS),
    )
