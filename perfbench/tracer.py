"""In-memory spans around the calls into each sltime layer.

The tracer wraps a fixed list of layer-boundary functions wherever an
``sltime`` module (the package namespace included) holds a reference to
them, so calls made by the workload and calls made between layers are both
seen.  Nothing inside ``src/sltime`` is edited; ``uninstall`` puts every
original function back.

Two kinds of record are kept:

- a *span* per call of an ordinary layer function:
  ``[name, start, end, parent, op, units]``, times from ``time.monotonic``
  (CLOCK_MONOTONIC, so spans written by child processes share the clock);
- an *aggregate* per (kernel, parent span, operation) for the per-energy kernels,
  which run hundreds of thousands of times a pass:
  ``[name, parent, op, calls, units, total_s, self_s]``.

``units`` counts the work of a call: energies for the kernels and the
sweeps, point-steps for ``tdse.evolve``, 1 otherwise.

Run as a script, the module is the traced form of the ``sltime`` command:
``python perfbench/tracer.py SPANS.json <sltime arguments>``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

#: layer -> functions wrapped with a full span per call
SPANNED = {
    "medium": ("load_stack",),
    "kard": ("band_structure", "energy_at_phase"),
    "timing": ("transmission_sweep", "timing_curve", "phase_time", "envelopes",
               "bloch_time"),
    "resonance": ("fit_peak", "fit_valley"),
    "scattering": ("smith_matrix", "dwell_time"),
    "arc": ("design_rule_of_thumb", "band_average_transmission"),
    "tdse": ("plan_run", "evolve", "packet_delay", "spectral_average"),
}
#: layer -> per-energy kernels, aggregated per parent span
AGGREGATED = {
    "tmatrix": ("cell_matrix", "stack_matrix"),
    "kard": ("kard_derivatives",),
    "playmodel": ("play_matrix", "play_kard"),
    "arc": ("compose_with_arc",),
}


def _kernel_units(args, kwargs, result) -> int:
    return int(getattr(args[0] if args else kwargs.get("E"), "size", 1))


def _curve_units(args, kwargs, result) -> int:
    return len(result.energies)


def _band_average_units(args, kwargs, result) -> int:
    grid = args[2] if len(args) > 2 else kwargs.get("grid")
    return 2048 if grid is None else grid.count  # the function's own default grid


def _evolve_units(args, kwargs, result) -> int:
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return grid.n_points * grid.n_steps


UNITS = {
    "tmatrix.cell_matrix": _kernel_units,
    "tmatrix.stack_matrix": _kernel_units,
    "timing.transmission_sweep": _curve_units,
    "timing.timing_curve": _curve_units,
    "arc.band_average_transmission": _band_average_units,
    "tdse.evolve": _evolve_units,
}


class Tracer:
    """Collects spans and kernel aggregates; ``op`` tags the current operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.kernels: dict[tuple[str, int, int], list] = {}
        self.op = -1
        self._span = -1  # innermost open span
        self._frames: list[list] = [[0.0]]  # child seconds of each open call
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, aggregate: bool):
        units_of = UNITS.get(name)
        frames, kernels, spans = self._frames, self.kernels, self.spans
        clock = time.monotonic

        def kernel(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                frames.pop()
                frames[-1][0] += seconds
                key = (name, self._span, self.op)
                agg = kernels.get(key)
                if agg is None:
                    agg = kernels[key] = [name, self._span, self.op, 0, 0, 0.0, 0.0]
                agg[3] += 1
                agg[4] += units_of(args, kwargs, None) if units_of else 1
                agg[5] += seconds
                agg[6] += seconds - frame[0]

        def span(*args, **kwargs):
            parent, index = self._span, len(spans)
            record = [name, 0.0, 0.0, parent, self.op, 1]
            spans.append(record)
            self._span = index
            frames.append([0.0])
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                frames.pop()
                frames[-1][0] += record[2] - record[1]
                self._span = parent
            if units_of:
                record[5] = units_of(args, kwargs, result)
            return result

        return kernel if aggregate else span

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded ``sltime`` module namespace."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "sltime" or n.startswith("sltime.")]
        for table, aggregate in ((SPANNED, False), (AGGREGATED, True)):
            for layer, names in table.items():
                owner = sys.modules[f"sltime.{layer}"]
                for fname in names:
                    original = getattr(owner, fname)
                    wrapper = self.wrap(f"{layer}.{fname}", original, aggregate)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- output --------------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "kernels": list(self.kernels.values())}

    def adopt(self, child: dict, parent: int) -> None:
        """Add a child process's records under span ``parent``, as operation ``op``."""
        base = len(self.spans)
        for name, start, end, par, _, units in child["spans"]:
            self.spans.append([name, start, end, parent if par < 0 else par + base,
                               self.op, units])
        for name, par, _, calls, units, total, self_s in child["kernels"]:
            par = parent if par < 0 else par + base
            self.kernels[(name, par, self.op)] = [name, par, self.op, calls, units,
                                                   total, self_s]


def self_times(spans: list, kernels: list) -> list[float]:
    """Self time of every span: its duration minus its children's.

    A kernel's aggregate lists its own self time, and the kernels under one
    span together cover exactly the sum of those, nested kernels included.
    """
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    for _, parent, _, _, _, _, kernel_self in kernels:
        if parent >= 0:
            own[parent] -= kernel_self
    return own


def main(argv: list[str]) -> int:
    out, cli_args = Path(argv[0]), argv[1:]
    import sltime.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = sltime.cli.main(cli_args)
    finally:
        tracer.uninstall()
        out.write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
