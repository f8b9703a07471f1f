#!/usr/bin/env python3
"""The sltime benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli,campaign,stationary} \
        --seed N --seconds S --trace 0|1

``stationary`` is held out of BENCHMARK.json (see perfbench/README.md).
Run it from the root of a checkout; it builds nothing and imports sltime from
``src/``.  It prints a table of the metrics with their units, and as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Every output goes under ``.perfbench/``: a scratch
directory that is removed at the end, and a result file with provenance,
per-pass figures and, when traced, the spans.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from tracer import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
#: files a run reads; without them it stops before measuring anything
INPUTS = ("src/sltime/__init__.py", "src/sltime/cli.py", "stacks/rep5.json",
          "stacks/rep5_arc.json", "figures/fig3.csv", "figures/fig7.csv",
          "figures/fig8.csv")
WORKLOADS = ("cli", "stationary", "campaign")
#: fresh interpreters that only set up, besides the measuring one (setup_s
#: is the median of all their set-up times)
SETUP_PROBES = 3
#: launches of each import probe (import.sltime_s)
IMPORT_PROBES = 5
WORKER_TIMEOUT_S = 150.0
PROBE_TIMEOUT_S = 30.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "startup_s": "s", "energies_per_s": "1/s",
              "point_s": "s", "peak_rss_mb": "MB"}
CLI_LAYER = ("kard", "transmission", "phasetime", "dwell", "resonances", "playmodel",
             "arc_design", "arc_evaluate", "reproduce7", "reproduce8")
LAYERS = ("cli", "medium", "tmatrix", "kard", "timing", "resonance", "scattering",
          "playmodel", "arc", "tdse")
#: metric -> (span or kernel name, "call" | "unit", scale, unit)
PER_CALL = {
    "tmatrix.cell_matrix_us": ("tmatrix.cell_matrix", "unit", 1e6, "us"),
    "tmatrix.stack_matrix_us": ("tmatrix.stack_matrix", "unit", 1e6, "us"),
    "kard.band_structure_ms": ("kard.band_structure", "call", 1e3, "ms"),
    "kard.energy_at_phase_us": ("kard.energy_at_phase", "call", 1e6, "us"),
    "timing.transmission_sweep_us": ("timing.transmission_sweep", "unit", 1e6, "us"),
    "timing.timing_curve_us": ("timing.timing_curve", "unit", 1e6, "us"),
    "timing.phase_time_us": ("timing.phase_time", "call", 1e6, "us"),
    "resonance.fit_peak_us": ("resonance.fit_peak", "call", 1e6, "us"),
    "scattering.smith_matrix_us": ("scattering.smith_matrix", "call", 1e6, "us"),
    "scattering.dwell_time_ms": ("scattering.dwell_time", "call", 1e3, "ms"),
    "arc.band_average_us": ("arc.band_average_transmission", "unit", 1e6, "us"),
    "arc.design_ms": ("arc.design_rule_of_thumb", "call", 1e3, "ms"),
    "tdse.evolve_s": ("tdse.evolve", "call", 1.0, "s"),
    "tdse.ns_per_point_step": ("tdse.evolve", "unit", 1e9, "ns"),
}


def timed(cmd: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return time.monotonic() - start, proc


def worker(args, env: dict, tmp: Path, setup_only: bool) -> tuple[float, dict]:
    """Run perfbench/workloads.py; return its set-up seconds and its report."""
    out = tmp / ("setup.json" if setup_only else "report.json")
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()  # CLOCK_MONOTONIC: the worker stamps the same clock
    subprocess.run(cmd, cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S, check=True)
    report = json.loads(out.read_text())
    return report["setup_done"] - spawned, report


def import_probes(env: dict) -> dict:
    """import.sltime_s and import.scipy_modules from fresh interpreters."""
    empty = [timed([sys.executable, "-c", "pass"], env)[0] for _ in range(IMPORT_PROBES)]
    full = [timed([sys.executable, "-c", "import sltime"], env)[0]
            for _ in range(IMPORT_PROBES)]
    count = "import sys, sltime; print(sum(m.split('.')[0] == 'scipy' for m in sys.modules))"
    _, proc = timed([sys.executable, "-c", count], env)
    return {"import.sltime_s": statistics.median(full) - statistics.median(empty),
            "import.scipy_modules": int(proc.stdout)}


def pass_figures(blocks: list, calibrated: bool) -> dict:
    """wall_s, energies_per_s, point_s and the `--version` launch times of one
    pass, from its block records (workloads.Pass), in calibrated or raw seconds."""
    wall, version = 0.0, []
    kinds: dict[str, list] = defaultdict(lambda: [0.0, 0])  # seconds, units
    for seconds, factor, calls in blocks:
        scale = factor if calibrated else 1.0
        wall += seconds * scale
        for kind, (kind_s, units) in calls.items():
            kinds[kind][0] += kind_s * scale
            kinds[kind][1] += units
            if kind == "version":
                version.append(kind_s * scale)
    array_s, array_n = kinds["array"]
    return {"wall_s": wall, "energies_per_s": array_n / array_s if array_s else 0.0,
            "point_s": kinds["scalar"][0], "version_s": version}


def end_to_end(report: dict, setups: list, calibrated: bool) -> dict:
    """Medians of the end-to-end metrics over the untraced passes.

    `setups` are raw seconds, also when `calibrated`: set-up is mostly process
    start-up and imports, which the probe does not track (calibration.py).
    The report's `launches` are (raw seconds, calibration factor) pairs."""
    figures = [pass_figures(p["blocks"], calibrated) for p in report["passes"]
               if not p["traced"]]
    startup = [s * f if calibrated else s for s, f in report["launches"]]
    startup += [v for f in figures for v in f["version_s"]]
    return {"setup_s": statistics.median(setups),
            "wall_s": statistics.median(f["wall_s"] for f in figures),
            "startup_s": statistics.median(startup),
            "energies_per_s": statistics.median(f["energies_per_s"] for f in figures),
            "point_s": statistics.median(f["point_s"] for f in figures),
            "peak_rss_mb": report["peak_rss_mb"]}


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    spans, kernels = trace["spans"], trace["kernels"]
    calls: dict[str, list] = defaultdict(lambda: [0, 0, 0.0])  # calls, units, seconds
    for name, start, end, _, _, units in spans:
        c = calls[name]
        c[0] += 1
        c[1] += units
        c[2] += end - start
    for name, _, _, n, units, total, _ in kernels:
        c = calls[name]
        c[0] += n
        c[1] += units
        c[2] += total
    own: dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, self_times(spans, kernels)):
        own[span[0].split(".")[0]] += seconds
    for name, _, _, _, _, _, kernel_self in kernels:
        own[name.split(".")[0]] += kernel_self

    metrics = {}
    for metric, (name, per, scale, _) in PER_CALL.items():
        n, units, seconds = calls[name]
        div = n if per == "call" else units
        metrics[metric] = seconds / div * scale if div else 0.0
    metrics["tmatrix.cell_matrix_energies"] = calls["tmatrix.cell_matrix"][1]
    metrics["tdse.point_steps"] = calls["tdse.evolve"][1]
    metrics["tdse.evolve_calls"] = calls["tdse.evolve"][0]
    for name in CLI_LAYER:
        metrics[f"cli.{name}_s"] = calls[f"cli.{name}"][2]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = own[layer]
    return metrics


def per_layer_units() -> dict:
    units = {m: spec[3] for m, spec in PER_CALL.items()}
    units.update({"import.sltime_s": "s", "import.scipy_modules": "count",
                  "tmatrix.cell_matrix_energies": "count", "tdse.point_steps": "count",
                  "tdse.evolve_calls": "count", "trace.overhead_s": "s"})
    units.update({f"cli.{name}_s": "s" for name in CLI_LAYER})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    return units


def snapshot(root: Path) -> dict:
    """Size and mtime of every file a run must leave alone."""
    skip = {".git", OUT.name, "__pycache__"}
    state = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in skip]
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            state[os.path.relpath(path, root)] = (st.st_size, st.st_mtime_ns)
    return state


def provenance(args, samples: dict) -> dict:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sltime").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), None) \
        if Path("/proc/cpuinfo").exists() else None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0)), "cpu": cpu,
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")},
        "git_commit": commit, "source_sha256": digest.hexdigest(), "samples": samples,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    missing = [p for p in INPUTS if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an sltime checkout ({ROOT}); missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    before = snapshot(ROOT)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        setups = [worker(args, env, tmp, True)[0]
                  for _ in range(SETUP_PROBES)]
        imports = import_probes(env) if args.trace else {}
        seconds, report = worker(args, env, tmp, False)
        setups.append(seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    changed = sorted(set(before.items()) ^ set(snapshot(ROOT).items()))
    attempted = report["attempted"] + 1
    failures = list(report["failures"])
    if changed:
        failures.append(f"run changed the checkout: {sorted({p for p, _ in changed})[:10]}")
    failed = report["failed"] + bool(changed)

    passes = report["passes"]
    plain = [p for p in passes if not p["traced"]]
    e2e = end_to_end(report, setups, calibrated=True)
    raw = end_to_end(report, setups, calibrated=False)
    if args.trace:
        per_pass = [layer_metrics(t) for t in report["traces"]]
        # median_low: a value one pass measured, so counts stay whole numbers
        values = {m: statistics.median_low(pp[m] for pp in per_pass) for m in per_pass[0]}
        values.update(imports)
        traced_wall = statistics.median(pass_figures(p["blocks"], True)["wall_s"]
                                        for p in passes if p["traced"])
        values["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        units = per_layer_units()
    else:
        values, units = e2e, END_TO_END
    metrics = {m: {"value": values[m], "unit": units[m]} for m in units}

    samples = {"passes": len(plain), "traced_passes": len(passes) - len(plain),
               "setup_runs": len(setups),
               "startup_launches": len(report["launches"]) + sum(
                   "version" in calls for p in plain for _, _, calls in p["blocks"]),
               "calibration_probes": len(report["probes"]), "attempted": attempted}
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({
        "provenance": provenance(args, samples), "metrics": metrics,
        "end_to_end": e2e, "end_to_end_raw": raw, "probes_s": report["probes"],
        "setups": setups, "launches": report["launches"],
        "error_rate": failed / attempted, "failures": failures,
        "passes": passes, "diagnostics": report["diagnostics"],
        "traces": report["traces"], "op_names": report["op_names"],
    }))

    print(f"sltime benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}; {len(plain)} plain and "
          f"{len(passes) - len(plain)} traced pass(es)")
    print(f"  {'metric':<16} {'calibrated':>14} {'raw':>14}")
    for name, value in e2e.items():
        print(f"  {name:<16} {value:14.6g} {raw[name]:14.6g} {END_TO_END[name]}")
    print(f"  {'error_rate':<16} {failed / attempted:14.6g} fraction ({failed}/{attempted})")
    if args.trace:
        for name in sorted(units):
            print(f"  {name:<30} {values[name]:14.6g} {units[name]}")
    for name, value in report["diagnostics"].items():
        if not isinstance(value, list):
            print(f"  {name}: {value:.3g}")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    print(f"  result file: {result_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
