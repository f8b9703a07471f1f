"""One workload of the sltime benchmark, in a fresh interpreter.

    python perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --tmp DIR --out FILE [--setup-only]

``run.py`` starts this process and reads FILE.  The process sets up (import,
stacks, ARC design), stamps the monotonic clock, then starts timed passes of
the workload until ``--seconds`` have gone by (at least one pass; with
``--trace 1`` at least one untraced and one traced pass, alternating).
A pass is a chain of timed blocks (a command, a stack, a call) with a
calibration probe between consecutive blocks (see calibration.py).  The
output checks of a pass run after its last block.  Every operation
either succeeds or is recorded as failed with a reason; a failed output check
marks the operation that produced the output as failed.

The process starts no threads of its own.  The ``cli`` workload runs each
command as a child interpreter and waits for it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

from calibration import Speed
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))  # the checkout's sltime, never an installed one

#: band scan used by the CLI and the tier-1 fixtures
SCAN = (1.0, 300.0, 6000)
#: relative tolerance for CSV values against figures/*.csv of the same commit;
#: rebuilding a figure reproduces it to ~3e-14, so 1e-9 only flags real drift
FIGURE_RTOL = 1e-9
CHILD_TIMEOUT_S = 120.0
#: environment of every sltime child process: the checkout's sltime
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
#: `sltime --version` launches after each pass of an in-process workload, for
#: startup_s; spread over the run, they meet the host as the passes do
LAUNCHES_PER_PASS = 4


class Ops:
    """Attempted operations of one pass and the reasons the failed ones failed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.failures: dict[int, str] = {}

    def start(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def fail(self, op: int, reason: str) -> None:
        self.failures.setdefault(op, f"{self.names[op]}: {reason}")

    def call(self, name: str, fn, *args, tracer: Tracer | None = None, **kwargs):
        """Run one operation; return (op id, result or None if it raised)."""
        op = self.start(name)
        if tracer is not None:
            tracer.op = op
        try:
            return op, fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - a failing operation is counted, not fatal
            self.fail(op, traceback.format_exc(limit=2).strip().splitlines()[-1])
            return op, None

    def check(self, op: int, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(op, reason)


def rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


class Pass:
    """One pass as consecutive timed blocks (a command, a stack, a call).

    Each block is recorded once, as ``[seconds, factor, calls]``: its raw
    seconds, the calibration factor of the probes around it (see
    calibration.py), and ``{kind: [seconds, units]}``, the raw seconds and work
    units of its calls of each kind (``array``: energy samples of array-shaped
    calls; ``scalar``: per-energy scalar calls; ``version``: `--version`
    launches).  ``run.py`` derives every end-to-end figure from the blocks.
    """

    def __init__(self, speed: Speed) -> None:
        self.speed = speed
        self.blocks: list[list] = []
        self._calls: dict[str, list] = {}

    @contextlib.contextmanager
    def block(self):
        self._calls = {}
        start = time.perf_counter()
        yield
        seconds = time.perf_counter() - start
        self.blocks.append([seconds, self.speed.factor(), self._calls])

    def add(self, kind: str, seconds: float, units: int) -> None:
        kind_total = self._calls.setdefault(kind, [0.0, 0])
        kind_total[0] += seconds
        kind_total[1] += units

    def call(self, ops: Ops, tracer, kind: str, name: str, units: int, fn, *args, **kwargs):
        """One timed operation of a kind, inside the current block."""
        start = time.perf_counter()
        op, result = ops.call(name, fn, *args, tracer=tracer, **kwargs)
        self.add(kind, time.perf_counter() - start, units)
        return op, result


# --- cli ------------------------------------------------------------------------

#: One pass: every command once, with `--version` launches spread between them.
#: Outputs go to the run's scratch directory; `reproduce` would default to figures/.
CLI_COMMANDS = (
    ("version", ["--version"]),
    ("kard", ["kard", "--stack", "stacks/rep5.json", "-o", "{tmp}/kard.csv"]),
    ("transmission", ["transmission", "--stack", "stacks/rep5.json",
                      "-o", "{tmp}/transmission.csv"]),
    ("phasetime", ["phasetime", "--stack", "stacks/rep5.json", "-o", "{tmp}/phasetime.csv"]),
    ("version", ["--version"]),
    ("dwell", ["dwell", "--stack", "stacks/rep5.json", "--count", "40",
               "-o", "{tmp}/dwell.csv"]),
    ("resonances", ["resonances", "--stack", "stacks/rep5.json",
                    "-o", "{tmp}/resonances.csv"]),
    ("version", ["--version"]),
    ("playmodel", ["playmodel", "--figure", "3", "-o", "{tmp}/playmodel3.csv"]),
    ("arc_design", ["arc", "design", "--stack", "stacks/rep5.json",
                    "-o", "{tmp}/rep5_arc.json"]),
    ("version", ["--version"]),
    ("arc_evaluate", ["arc", "evaluate", "--stack", "stacks/rep5_arc.json",
                      "--csv", "{tmp}/arc_evaluate.csv", "-o", "{tmp}/arc_evaluate.json"]),
    ("reproduce7", ["reproduce", "--figure", "7", "--outdir", "{tmp}"]),
    ("version", ["--version"]),
    ("reproduce8", ["reproduce", "--figure", "8", "--outdir", "{tmp}"]),
)
#: command -> (file it writes, figures/ reference it must reproduce)
CLI_FIGURES = {"playmodel": ("playmodel3.csv", "fig3"), "reproduce7": ("fig7.csv", "fig7"),
               "reproduce8": ("fig8.csv", "fig8")}
#: command -> CSV rows it writes at these arguments
CLI_ROWS = {"kard": 1200, "transmission": 2400, "phasetime": 800, "dwell": 40,
            "resonances": 9}
#: command -> (kind, units) of its time: the sweep commands request these
#: energy samples at their defaults; dwell/Smith and lineshape fits are
#: per-energy scalar calls
CLI_KINDS = {"version": ("version", 1), "kard": ("array", 1200),
             "transmission": ("array", 2400), "phasetime": ("array", 800),
             "dwell": ("scalar", 1), "resonances": ("scalar", 1)}


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Column names and rows of an sltime CSV, header comment lines skipped."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def compare_csv(produced: Path, reference: tuple) -> tuple[str | None, float]:
    """(problem or None, largest relative drift) of a CSV against a reference."""
    columns, rows = read_csv(produced)
    ref_columns, ref_rows = reference
    if columns != ref_columns or len(rows) != len(ref_rows):
        return (f"shape {len(columns)}x{len(rows)} differs from the reference "
                f"{len(ref_columns)}x{len(ref_rows)}"), math.inf
    drift = 0.0
    for row, ref in zip(rows, ref_rows):
        for a, b in zip(row, ref):
            if a != b:
                try:
                    d = rel_diff(float(a), float(b))
                except ValueError:
                    return f"field {a!r} differs from {b!r}", math.inf
                drift = max(drift, d if d == d else math.inf)
    if drift > FIGURE_RTOL:
        return f"drift {drift:.2e} from the reference exceeds {FIGURE_RTOL:g}", drift
    return None, drift


class CliWorkload:
    """Closed loop, one client: each operation is one `python -m sltime ...`."""

    in_process = False

    def setup(self, seed: int, tmp: Path) -> None:
        # fixed committed inputs: the seed selects nothing here
        self.tmp = tmp
        # One untimed launch first, as a user's first command in a checkout:
        # it loads sltime's files into the page cache and, in a fresh
        # checkout, compiles them, so the timed launches all start warm.
        # Its outcome is not checked; every timed launch is.
        subprocess.run([sys.executable, "-m", "sltime", "--version"], cwd=ROOT,
                       env=CHILD_ENV, capture_output=True, timeout=CHILD_TIMEOUT_S)
        self.references = {ref: read_csv(ROOT / "figures" / f"{ref}.csv")
                           for _, ref in CLI_FIGURES.values()}
        self.arc_reference = json.loads((ROOT / "stacks" / "rep5_arc.json").read_text())
        self.figure_drift = 0.0

    def run_pass(self, ops: Ops, tracer: Tracer | None, speed: Speed) -> dict:
        timed = Pass(speed)
        outputs = []
        for name, template in CLI_COMMANDS:
            argv = [a.replace("{tmp}", str(self.tmp)) for a in template]
            op = ops.start(name)
            if tracer is None:
                cmd = [sys.executable, "-m", "sltime", *argv]
            else:
                span_file = self.tmp / f"spans-{op}.json"
                cmd = [sys.executable, str(BENCH / "tracer.py"), str(span_file), *argv]
            with timed.block():
                start = time.monotonic()
                try:
                    proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True,
                                          text=True, timeout=CHILD_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc = None
                end = time.monotonic()
                if name in CLI_KINDS:
                    kind, units = CLI_KINDS[name]
                    timed.add(kind, end - start, units)
            if proc is None:
                ops.fail(op, f"timed out after {CHILD_TIMEOUT_S:g} s")
                continue
            if proc.returncode != 0:
                ops.fail(op, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
                continue
            outputs.append((op, name, proc.stdout))
            if tracer is not None:
                tracer.op = op
                tracer.spans.append([f"cli.{name}", start, end, -1, op, 1])
                tracer.adopt(json.loads(span_file.read_text()), len(tracer.spans) - 1)
        return {"pass": timed, "outputs": outputs}

    def check_pass(self, ops: Ops, result: dict) -> None:
        tmp = self.tmp
        for op, name, stdout in result["outputs"]:
            try:
                problem = self._check(name, stdout, tmp)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
            ops.check(op, problem is None, problem or "")

    def _check(self, name: str, stdout: str, tmp: Path) -> str | None:
        if name == "version":
            return None if stdout.startswith("sltime ") else f"printed {stdout!r}"
        if name in CLI_FIGURES:
            produced, ref = CLI_FIGURES[name]
            problem, drift = compare_csv(tmp / produced, self.references[ref])
            self.figure_drift = max(self.figure_drift, drift)
            return problem
        if name == "arc_design":
            got = json.loads((tmp / "rep5_arc.json").read_text())
            return None if json_close(got, self.arc_reference) else \
                "designed stack differs from stacks/rep5_arc.json"
        if name == "arc_evaluate":
            summary = json.loads((tmp / "arc_evaluate.json").read_text())
            _, rows = read_csv(tmp / "arc_evaluate.csv")
            if len(rows) != 2048:
                return f"{len(rows)} CSV rows, expected 2048"
            if not summary["has_arcs"] or not summary["avg_T"] > summary["avg_T_core_only"]:
                return f"end cells do not raise the band average: {summary}"
            return None
        expected = CLI_ROWS[name]
        columns, rows = read_csv(tmp / f"{name}.csv")
        if len(rows) != expected:
            return f"{len(rows)} rows, expected {expected}"
        if name == "transmission":
            if not all(0.0 <= float(r[1]) <= 1.0 + 1e-12 for r in rows):
                return "|t_N|^2 outside [0, 1]"
        if name == "phasetime":
            i_max, i_min, i_bl = (columns.index(c)
                                  for c in ("env_max_fs", "env_min_fs", "bloch_fs"))
            worst = max(rel_diff(float(r[i_max]) * float(r[i_min]), float(r[i_bl]) ** 2)
                        for r in rows)
            if worst > 1e-10:
                return f"env_max*env_min differs from (N tau_Bl)^2 by {worst:.1e}"
        return None

    def diagnostics(self) -> dict:
        return {"figure_max_rel_drift": self.figure_drift}

    def peak_rss_mb(self) -> float:
        """Largest child command's peak RSS."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def json_close(a, b, rtol: float = FIGURE_RTOL) -> bool:
    """Structural equality of two JSON values, floats to a relative tolerance."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(json_close(a[k], b[k], rtol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(json_close(x, y, rtol) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and rel_diff(float(a), float(b)) <= rtol
    return a == b


# --- in-process workloads --------------------------------------------------------

class InProcessWorkload:
    """A workload that calls the library in this process."""

    in_process = True

    def diagnostics(self) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class StationaryWorkload(InProcessWorkload):
    """rep5 plus seeded well/barrier/well cells, array-shaped and scalar calls.

    Held out of BENCHMARK.json: on this family some operations of the current
    code fail on valid input (see perfbench/README.md), and the benchmark's
    workloads must run without failures.  Run it by name to see them counted.
    """

    #: energies for phase_time/envelopes/smith_matrix per stack; the first
    #: DWELL_ENERGIES of them also get dwell_time, the first PHASE_CHECKS
    #: are checked against the phase of t_N
    SCALAR_ENERGIES = 6
    DWELL_ENERGIES = 2
    PHASE_CHECKS = 3

    def setup(self, seed: int, tmp: Path) -> None:
        import sltime

        self.sl = sltime
        rng = random.Random(seed)
        gaas = sltime.load_stack(ROOT / "stacks" / "rep5.json")
        well_mass = gaas.outside.mass_ratio
        barrier = gaas.core.layers[1]
        # Replicas 3..12 each once, so every seed asks for the same number of
        # extrema fits; the seed moves the geometry.  Wells 2.5-7 nm and
        # barriers 1.5-12 nm give a first band from sub-meV (the 2.5/12/2.5 nm
        # cell of ROADMAP 5b: 0.038 meV) to ~100 meV wide.  No stack is
        # filtered out.
        replicas = list(range(3, 13))
        rng.shuffle(replicas)
        self.stacks = [gaas]
        for n in replicas:
            w, b = rng.uniform(2.5, 7.0), rng.uniform(1.5, 12.0)
            half = sltime.Layer(0.5 * w, 0.0, well_mass)
            core = sltime.CellSpec(
                (half, sltime.Layer(b, barrier.potential, barrier.mass_ratio), half),
                symmetric=True)
            self.stacks.append(sltime.StackSpec(core=core, replicas=n, outside=gaas.outside))
        self.fractions = [[rng.random() for _ in range(self.SCALAR_ENERGIES)]
                          for _ in self.stacks]
        self.scan = sltime.EnergyGrid.linear(*SCAN)

    def run_pass(self, ops: Ops, tracer: Tracer | None, speed: Speed) -> dict:
        timed = Pass(speed)
        outputs = []
        for stack, fractions in zip(self.stacks, self.fractions):
            with timed.block():
                out = self._one_stack(ops, tracer, timed, stack, fractions)
            if out is not None:
                outputs.append(out)
        return {"pass": timed, "outputs": outputs}

    def _one_stack(self, ops, tracer, timed: Pass, stack, fractions):
        sl = self.sl
        core, out, n = stack.core, stack.outside, stack.replicas

        def array(name, units, fn, *args, **kwargs):
            return timed.call(ops, tracer, "array", name, units, fn, *args, **kwargs)

        def scalar(name, fn, *args, **kwargs):
            return timed.call(ops, tracer, "scalar", name, 1, fn, *args, **kwargs)

        _, bands = array("band_structure", SCAN[2], sl.band_structure, core, out,
                         grid=self.scan)
        if not bands:
            return None
        band = bands[0]
        lo, hi = band.interior(5e-3)
        sweep = array("transmission_sweep", 2400, sl.transmission_sweep, core, out, n,
                      sl.EnergyGrid.linear(lo, hi, 2400))
        array("timing_curve", 800, sl.timing_curve, core, out, n,
              sl.EnergyGrid.linear(lo, hi, 800), band=band)
        peaks = [scalar("fit_peak", sl.fit_peak, core, out, n, m, band=band)
                 for m in range(1, n)]
        for p in range(n):
            scalar("fit_valley", sl.fit_valley, core, out, n, p, band=band)
        _, design = scalar("design_rule_of_thumb", sl.design_rule_of_thumb, core, out, band)
        average = (None, None)
        if design is not None:
            dressed = sl.StackSpec(core=core, replicas=n, outside=out,
                                   left_arc=design.arc_cell, right_arc=design.arc_cell)
            average = array("band_average_transmission", 2048,
                            sl.band_average_transmission, dressed, band,
                            sl.EnergyGrid.linear(*band.interior(1e-6), 2048))
        e_lo, e_hi = band.interior(0.02)
        points = []
        for i, f in enumerate(fractions):
            E = e_lo + f * (e_hi - e_lo)
            tau = scalar("phase_time", sl.phase_time, core, out, n, E, band=band)
            env = scalar("envelopes", sl.envelopes, core, out, n, E, band=band)
            scalar("smith_matrix", sl.smith_matrix, stack, E)
            if i < self.DWELL_ENERGIES:
                scalar("dwell_time", sl.dwell_time, stack, E)
            points.append((E, tau, env))
        return stack, band, sweep, peaks, average, points

    def check_pass(self, ops: Ops, result: dict) -> None:
        sl = self.sl
        for stack, band, (sweep_op, sweep), peaks, (avg_op, avg), points in result["outputs"]:
            if sweep is not None:
                ops.check(sweep_op, bool(((sweep.t2 >= 0) & (sweep.t2 <= 1 + 1e-12)).all()),
                          "|t_N|^2 outside [0, 1]")
            for op, peak in peaks:
                if peak is not None:
                    t2 = sl.amplitudes(sl.stack_matrix(peak.E_m, stack)).T
                    ops.check(op, abs(t2 - 1.0) <= 1e-6,
                              f"|t_N|^2 = {t2!r} at the fitted peak {peak.E_m!r} meV")
            if avg is not None:
                ops.check(avg_op, 0.0 < avg <= 1.0, f"band average {avg!r} outside (0, 1]")
            for i, (E, (tau_op, tau), (env_op, env)) in enumerate(points):
                if env is not None:
                    env_max, env_min, bloch = env
                    d = rel_diff(env_max * env_min, bloch * bloch)
                    ops.check(env_op, d <= 1e-10,
                              f"env_max*env_min off (N tau_Bl)^2 by {d:.1e} at {E!r} meV")
                if tau is not None and i < self.PHASE_CHECKS:
                    # the phase moves by 0.01 rad per step, however sharp the
                    # resonance; at most 1e-4 of the band per step
                    h = min(1e-4 * band.width, 1e-2 * sl.CONSTANTS.hbar / abs(tau))
                    oracle = phase_difference_time(sl, stack, E, h)
                    d = rel_diff(tau, oracle)
                    ops.check(tau_op, d <= 1e-4,
                              f"tau_ph {tau!r} vs phase difference {oracle!r} fs at {E!r} meV")

    def diagnostics(self) -> dict:
        return {"stacks": [{"replicas": s.replicas,
                            "layers_nm": [layer.width for layer in s.core.layers]}
                           for s in self.stacks]}


def phase_difference_time(sl, stack, E: float, h: float) -> float:
    """hbar d(arg t_N)/dE from a five-point stencil on the unwrapped phase."""
    import numpy as np

    pts = (E - 2 * h, E - h, E + h, E + 2 * h)
    theta = np.unwrap([np.angle(sl.amplitudes(sl.stack_matrix(e, stack)).t) for e in pts])
    slope = (theta[0] - 8 * theta[1] + 8 * theta[2] - theta[3]) / (12 * h)
    return sl.CONSTANTS.hbar * float(slope)


class CampaignWorkload(InProcessWorkload):
    """The tier-1 packet-run fixture's shape at one energy: dressed and bare rep5."""

    E0 = 58.5
    SIGMA_X, DX, DT = 90.0, 0.5, 2.0
    #: tier-1 gates: |delay / <N tau_Bl> - 1| of the dressed run, norm drift
    DELAY_GATE, NORM_DRIFT = 0.15, 1e-8
    #: bare run's transmitted fraction against the spectral mean of |t_N|^2.
    #: Tier 1 holds a resonance-peak run to 2 % and the lattice-sensitive
    #: 55.86 meV run to 5 %; 58.5 meV sits in a valley (T ~ 0.17) where the
    #: 0.5 nm lattice moves the fraction by 2.8 %, so the 5 % gate applies.
    FRACTION_RTOL = 0.05
    #: blocks the stationary side of a run is timed in; short blocks track
    #: the host's speed (calibration.py)
    CHUNKS = 8

    def setup(self, seed: int, tmp: Path) -> None:
        # fixed inputs, as in the tier-1 fixture: the seed selects nothing here
        import sltime
        from sltime.tdse import free_reference

        self.sl = sltime
        self.free_reference = free_reference
        self.bare = sltime.load_stack(ROOT / "stacks" / "rep5.json")
        core, out = self.bare.core, self.bare.outside
        self.band = sltime.band_structure(core, out, grid=sltime.EnergyGrid.linear(*SCAN))[0]
        design = sltime.design_rule_of_thumb(core, out, self.band)
        self.dressed = sltime.StackSpec(core=core, replicas=self.bare.replicas, outside=out,
                                        left_arc=design.arc_cell, right_arc=design.arc_cell)

    def run_pass(self, ops: Ops, tracer: Tracer | None, speed: Speed) -> dict:
        sl, out = self.sl, self.bare.outside
        timed = Pass(speed)
        runs = {}
        for kind, spec in (("dressed", self.dressed), ("bare", self.bare)):
            side = self._stationary_side(ops, tracer, timed)
            with timed.block():
                _, plan = ops.call("plan_run", sl.plan_run, spec, self.E0,
                                   sigma_x=self.SIGMA_X, dx=self.DX, dt=self.DT, tracer=tracer)
            runs[kind] = side
            if plan is None:
                continue
            grid, packet, x_sep, x_d = plan
            with timed.block():
                side["record"] = ops.call("evolve", sl.evolve, spec, grid, packet, x_sep,
                                          tracer=tracer)
            with timed.block():
                side["reference"] = ops.call("evolve", sl.evolve, self.free_reference(spec),
                                             grid, packet, x_sep, tracer=tracer)
            if side["record"][1] is None or side["reference"][1] is None \
                    or side["curve"] is None:
                continue
            with timed.block():
                with warnings.catch_warnings():
                    # packet tails reach into the gaps; the in-band average is
                    # the intended comparator, as in the tier-1 fixture
                    warnings.simplefilter("ignore")
                    pred = sl.spectral_average(*side["curve"], packet, out)
                side["delay"] = ops.call("packet_delay", sl.packet_delay, side["record"][1],
                                         x_d, side["reference"][1],
                                         bloch_time_prediction=pred, tracer=tracer)
            side["packet"] = packet
        return {"pass": timed, "runs": runs}

    def _stationary_side(self, ops: Ops, tracer: Tracer | None, timed: Pass) -> dict:
        """A run's stationary prediction, as `sltime tdse` computes one per run:
        the <N tau_Bl> curve on its 1200 in-band samples, as array-shaped
        timing_curve calls and, as the tier-1 fixture computes it, one scalar
        bloch_time call per energy (the check compares the two); and the
        fixture's 2101-sample |t_N|^2 sweep.  Each is timed in CHUNKS
        consecutive pieces of its grid, a piece of each per block.  Both runs
        share rep5's core, so both
        compute the same curves; a pass thus measures the stationary side
        twice."""
        import numpy as np

        sl, band = self.sl, self.band
        core, out, n = self.bare.core, self.bare.outside, self.bare.replicas
        energies = sl.EnergyGrid.linear(*band.interior(5e-3), 1200).samples
        sweep_energies = sl.EnergyGrid.linear(48.0, 69.0, 2101).samples

        def bloch_curve(chunk):
            return [n * sl.bloch_time(core, out, float(e), band=band) for e in chunk]

        curves, bloch, sweeps = [], [], []  # per chunk: (op, result)
        for chunk, sweep_chunk in zip(np.array_split(energies, self.CHUNKS),
                                      np.array_split(sweep_energies, self.CHUNKS)):
            with timed.block():
                curves.append(timed.call(ops, tracer, "array", "timing_curve", len(chunk),
                                         sl.timing_curve, core, out, n,
                                         sl.EnergyGrid(chunk), band=band))
                bloch.append(timed.call(ops, tracer, "scalar", "bloch_time", len(chunk),
                                        bloch_curve, chunk))
                sweeps.append(timed.call(ops, tracer, "array", "transmission_sweep",
                                         len(sweep_chunk), sl.transmission_sweep, core,
                                         out, n, sl.EnergyGrid(sweep_chunk)))
        curve = sweep = None
        if all(c is not None for _, c in curves):
            curve = (energies, np.concatenate([c.tau_bloch_total for _, c in curves]))
        if all(c is not None for _, c in sweeps):
            sweep = (sweep_energies, np.concatenate([c.t2 for _, c in sweeps]))
        return {"chunks": (curves, bloch), "curve": curve, "sweep": sweep}

    def check_pass(self, ops: Ops, result: dict) -> None:
        for kind, side in result["runs"].items():
            for (_, curve), (op, values) in zip(*side["chunks"]):
                if values is not None and curve is not None:
                    d = max(rel_diff(a, b) for a, b in zip(values, curve.tau_bloch_total))
                    ops.check(op, d <= 1e-12,
                              f"scalar bloch_time differs from timing_curve's by {d:.1e}")
            for op, record in (side.get(k, (None, None)) for k in ("record", "reference")):
                if record is not None:
                    ops.check(op, record.norm_drift < self.NORM_DRIFT,
                              f"norm drift {record.norm_drift:.1e}")
            delay_op, delay = side.get("delay", (None, None))
            if delay is None:
                continue
            if kind == "dressed":
                ratio = delay.delay / delay.bloch_time_prediction
                ops.check(delay_op, abs(ratio - 1.0) <= self.DELAY_GATE,
                          f"delay/<N tau_Bl> = {ratio:.3f}")
            elif side["sweep"] is not None:
                mean_t2 = self.sl.spectral_average(*side["sweep"], side["packet"],
                                                   self.bare.outside)
                d = rel_diff(delay.transmitted_fraction, mean_t2)
                ops.check(side["record"][0], d <= self.FRACTION_RTOL,
                          f"transmitted fraction {delay.transmitted_fraction:.4f} vs "
                          f"spectral mean |t_N|^2 {mean_t2:.4f}")


WORKLOADS = {"cli": CliWorkload, "stationary": StationaryWorkload,
             "campaign": CampaignWorkload}


def launch_versions(ops: Ops, speed: Speed) -> list[tuple[float, float]]:
    """LAUNCHES_PER_PASS `python -m sltime --version` launches; the raw
    seconds and calibration factor of each one that succeeded."""
    launches = []
    for _ in range(LAUNCHES_PER_PASS):
        op = ops.start("version")
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "sltime", "--version"], cwd=ROOT,
                                  env=CHILD_ENV, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        seconds = time.perf_counter() - start
        factor = speed.factor()
        if proc is None or proc.returncode != 0 or not proc.stdout.startswith("sltime "):
            ops.fail(op, "--version failed" if proc is None else
                     f"exit {proc.returncode}: {proc.stdout!r} {proc.stderr.strip()[-200:]}")
        else:
            launches.append((seconds, factor))
    return launches


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, args.tmp)
    report: dict = {"setup_done": time.monotonic()}
    if args.setup_only:
        args.out.write_text(json.dumps(report))
        return 0

    speed = Speed()
    ops = Ops()
    passes, traces, launches = [], [], []
    start = time.monotonic()
    while time.monotonic() - start < args.seconds or len(passes) < 1 + args.trace:
        # with tracing, passes alternate untraced / traced, untraced first
        tracer = Tracer() if args.trace and len(passes) % 2 == 1 else None
        if tracer is not None and workload.in_process:
            tracer.install()
        try:
            result = workload.run_pass(ops, tracer, speed)
        finally:
            if tracer is not None:
                tracer.uninstall()
        workload.check_pass(ops, result)
        passes.append({"traced": tracer is not None, "blocks": result["pass"].blocks})
        del result  # so the next pass's peak memory does not include this one's
        if workload.in_process:
            launches += launch_versions(ops, speed)
        if tracer is not None:
            traces.append(tracer.dump())

    report.update(
        passes=passes,
        launches=launches,
        attempted=len(ops.names),
        failed=len(ops.failures),
        failures=sorted(ops.failures.values())[:20],
        op_names=ops.names,
        peak_rss_mb=workload.peak_rss_mb(),
        diagnostics=workload.diagnostics(),
        traces=traces,
        probes=speed.probes,
    )
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
