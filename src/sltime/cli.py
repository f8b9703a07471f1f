"""Command-line front end: reproducible CSV/JSON sweeps over the library.

Every subcommand echoes its full configuration into the artifact header, so
a run is reconstructible from its output alone.  Numbers are printed with
17 significant digits (lossless float round-trip); identical configs give
byte-identical files.

Exit codes: 0 success, 2 usage, 3 bad input (files, ranges, stack schema),
4 numeric failure (band edges, divergences, lost packets).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .arc import band_average_transmission, design_rule_of_thumb, stack_phase_time
from .errors import NumericError, ValidationError
from .kard import Band, as_model, band_structure, decompose
from .medium import (
    EnergyGrid,
    StackSpec,
    load_stack,
    representative_stack,
    save_stack,
    stack_to_dict,
)
from .playmodel import PLAY_MODEL, play_eta, play_kard, play_matrix
from .resonance import approx_curves, fit_extrema
from .scattering import dwell_time, smith_matrix
from .tdse import measure_delay, plan_run, spectral_average, stationary_packet_delay
from .timing import bloch_time, free_time, timing_curve, transmission_sweep
from .tmatrix import amplitudes, stack_matrix

#: Band window (meV) wide enough to hold the first few minibands of any
#: stack this tool targets; every band in it is found, its edges polished to
#: 1e-12 meV.  Its start is counted from the lead band bottom (``_lead_bottom``).
_WINDOW = (1.0, 300.0)


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return str(v)


def _config_header(args: argparse.Namespace) -> list[str]:
    cfg = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "command", "arc_command") and not callable(v)
    }
    name = args.command
    if getattr(args, "arc_command", None):
        name = f"{name} {args.arc_command}"
    blob = json.dumps(cfg, sort_keys=True, default=str)
    return [f"# sltime {name} v{__version__}", f"# config: {blob}"]


def _write_csv(out: str | None, header: list[str], columns: Sequence[str],
               rows: Iterable[Sequence]) -> None:
    lines = [*header, ",".join(columns), *(",".join(_fmt(v) for v in row) for row in rows)]
    _write(out, "\n".join(lines) + "\n")


def _write_json(out: str | None, payload: dict) -> None:
    _write(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write(out: str | None, text: str) -> None:
    """``text`` to the file ``out``, or to stdout when ``out`` is None or "-"."""
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# --- model/band plumbing shared by the sweep commands -----------------------

def _load_model(args) -> tuple[object, int]:
    """Resolve (cell model, N) from --stack/--play and, where the command
    takes it, --N."""
    n = getattr(args, "N", None)  # N < 1 is refused by the library call that takes it
    if args.play:
        return PLAY_MODEL, 9 if n is None else n
    stack = load_stack(args.stack)
    return as_model(stack.core, stack.outside), stack.replicas if n is None else n


def _lead_bottom(model) -> float:
    """Lead band bottom (meV): no state propagates in the leads at or below it."""
    lead = getattr(model, "outside", None)  # the play model has no lead layer
    return 0.0 if lead is None else lead.potential


def _pick_band(model, index: int) -> Band:
    if index < 1:
        raise ValidationError(f"--band counts from 1, got {index}")
    lo = _WINDOW[0] + _lead_bottom(model)
    bands = band_structure(model, grid=EnergyGrid.linear(lo, _WINDOW[1], 2))
    if len(bands) < index:
        raise NumericError(f"only {len(bands)} allowed band(s) in the {lo}-{_WINDOW[1]} meV "
                           f"window, band {index} requested")
    return bands[index - 1]


def _count(args, default: int) -> int:
    """--count, or ``default`` when the flag is absent; an explicit 0 is kept,
    for the grid to reject."""
    return default if args.count is None else args.count


def _grid_from_args(args, model, band: Band, default_count: int) -> EnergyGrid:
    lo, hi = band.interior(5e-3)
    e_min = lo if args.emin is None else args.emin
    e_max = hi if args.emax is None else args.emax
    return EnergyGrid.linear(e_min, e_max, _count(args, default_count), _lead_bottom(model))


def _sweep_grid(args, model, default_count: int) -> EnergyGrid:
    """`kard`/`transmission` grid; by default the play band or band window less 0.05 meV."""
    if args.emin is None or args.emax is None:
        lo, hi = PLAY_MODEL.band if args.play else (_WINDOW[0] + _lead_bottom(model), _WINDOW[1])
        args.emin = lo + 0.05 if args.emin is None else args.emin
        args.emax = hi - 0.05 if args.emax is None else args.emax
    return EnergyGrid.linear(args.emin, args.emax, _count(args, default_count),
                             _lead_bottom(model))


# --- subcommands -------------------------------------------------------------

def _cmd_kard(args) -> None:
    model, _ = _load_model(args)
    grid = _sweep_grid(args, model, 1200)
    M = model.matrix(grid.samples)
    p = decompose(M)
    rows = zip(grid.samples, 0.5 * model.trace(grid.samples), p.phi, p.mu, p.chi, p.band)
    _write_csv(args.output, _config_header(args),
               ["E_meV", "cos_phi", "phi", "mu", "chi", "band"], rows)


def _cmd_transmission(args) -> None:
    model, n = _load_model(args)
    grid = _sweep_grid(args, model, 2400)
    sw = transmission_sweep(model, None, n, grid)
    rows = zip(sw.energies, sw.t2, sw.envelope)
    _write_csv(args.output, _config_header(args), ["E_meV", "T_N", "env_min"], rows)


def _cmd_phasetime(args) -> None:
    model, n = _load_model(args)
    band = _pick_band(model, args.band)
    grid = _grid_from_args(args, model, band, default_count=800)
    curve = timing_curve(model, None, n, grid, band=band)
    _write_csv(args.output, _config_header(args), *_timing_table(curve))


def _timing_table(curve) -> tuple:
    """The columns and rows of `phasetime` and of figure 7."""
    return (["E_meV", "T_N", "tau_ph_fs", "env_max_fs", "env_min_fs", "bloch_fs"],
            zip(curve.energies, curve.t2, curve.tau_ph, curve.env_max, curve.env_min,
                curve.tau_bloch_total))


def _cmd_dwell(args) -> None:
    stack = load_stack(args.stack)
    model = as_model(stack.core, stack.outside)
    band = _pick_band(model, args.band)
    grid = _grid_from_args(args, model, band, default_count=160)
    E = grid.samples
    d = dwell_time(stack, E, x_left=args.xl, x_right=args.xr)
    q = smith_matrix(stack, E)
    _write_csv(args.output, _config_header(args),
               ["E_meV", "tau_dwell_fs", "tau_osc_fs", "tau_numeric_fs", "tau11_fs"],
               zip(E, d.dwell_time, d.oscillatory_term, d.tau_numeric, q.tau11))


def _cmd_resonances(args) -> None:
    flags = [f"--{k}" for k in ("emin", "emax", "count") if getattr(args, k) is not None]
    if flags and not args.curves:
        raise ValidationError(f"{' and '.join(flags)} shape only the --curves sweep")
    model, n = _load_model(args)
    band = _pick_band(model, args.band)
    if args.curves:  # before anything is written, so that a bad grid leaves no file
        ap = approx_curves(model, None, n, band, _grid_from_args(args, model, band, 1600))
        peaks, valleys = ap.peaks, ap.valleys
    else:
        peaks, valleys = fit_extrema(model, None, n, band)
    rows = []
    for pk in peaks:
        rows.append(("peak", pk.m, pk.E_m, pk.Gamma_m, pk.b_m, math.nan, pk.tau_peak, False))
    for vl in valleys:
        rows.append(("valley", vl.p, vl.E_p, vl.Gamma_p, vl.C_p, vl.D_p,
                     vl.tau_valley, vl.edge_degraded))
    _write_csv(args.output, _config_header(args),
               ["kind", "index", "E_meV", "Gamma_meV", "b_or_C", "D", "tau_fs",
                "edge_degraded"], rows)
    if args.curves:
        _write_csv(args.curves, _config_header(args),
                   ["E_meV", "T_approx", "tau_approx_fs"],
                   zip(ap.energies, ap.t2, ap.tau_ph))


# --- play-model figure sweeps ------------------------------------------------

def _eta_n(grid: np.ndarray, n: int) -> np.ndarray:
    """Unwrapped N-cell transmission phase, anchored to N pi/2 at band center."""
    eta = np.unwrap(np.angle(amplitudes(play_matrix(grid).power(n)).t))
    i0 = int(np.argmin(np.abs(grid - PLAY_MODEL.e_bragg)))
    eta += 2.0 * math.pi * round((0.5 * n * math.pi - eta[i0]) / (2.0 * math.pi))
    return eta


def _play_figure(figure: int, count: int):
    band = _pick_band(PLAY_MODEL, 1)
    # Samples keep 5e-3 of the band width (0.125 meV) clear of each edge,
    # where mu and the phase time diverge.
    lo, hi = band.interior(5e-3)
    n = 9
    if figure == 1:
        grid = EnergyGrid.linear(lo, hi, count).samples
        p = play_kard(grid)
        return (["E_meV", "cos_phi", "phi_halfpi", "eta_halfpi"],
                zip(grid, np.cos(p.phi), p.phi / (0.5 * math.pi),
                    play_eta(grid) / (0.5 * math.pi)))
    if figure == 2:
        grid = EnergyGrid.linear(lo, hi, count)
        one = transmission_sweep(PLAY_MODEL, None, 1, grid)
        nine = transmission_sweep(PLAY_MODEL, None, n, grid)
        return (["E_meV", "T_1", "T_9", "env_min"],
                zip(grid.samples, one.t2, nine.t2, nine.envelope))
    if figure == 3:
        grid = EnergyGrid.linear(lo, hi, count)
        curve = timing_curve(PLAY_MODEL, None, n, grid, band=band)
        return (["E_meV", "tau_ph_fs", "env_max_fs", "env_min_fs", "T9"],
                zip(curve.energies, curve.tau_ph, curve.env_max, curve.env_min,
                    curve.t2))
    if figure == 4:
        grid = EnergyGrid.linear(lo, PLAY_MODEL.e_bragg, count).samples
        p = play_kard(grid)
        return (["E_meV", "Nphi_over_pi", "eta9_over_pi"],
                zip(grid, n * p.phi / math.pi, _eta_n(grid, n) / math.pi))
    if figure == 5:
        grid = EnergyGrid.linear(lo, hi, count)
        nine = transmission_sweep(PLAY_MODEL, None, n, grid)
        ap = approx_curves(PLAY_MODEL, None, n, band, grid)
        return (["E_meV", "T_9", "T_approx"],
                zip(grid.samples, nine.t2, ap.t2))
    if figure == 6:
        grid = EnergyGrid.linear(lo, hi, count)
        curve = timing_curve(PLAY_MODEL, None, n, grid, band=band)
        ap = approx_curves(PLAY_MODEL, None, n, band, grid)
        return (["E_meV", "tau_ph_fs", "tau_approx_fs", "env_max_fs"],
                zip(curve.energies, curve.tau_ph, ap.tau_ph, curve.env_max))
    raise ValidationError(f"playmodel has figures 1-6, got {figure}")


def _cmd_playmodel(args) -> None:
    columns, rows = _play_figure(args.figure, _count(args, 1200))
    _write_csv(args.output, _config_header(args), columns, rows)


# --- arc ----------------------------------------------------------------------

def _cmd_arc_design(args) -> None:
    stack = load_stack(args.stack)
    if stack.left_arc is not None or stack.right_arc is not None:
        raise ValidationError("stack already carries end cells; design from the bare core")
    band = _pick_band(as_model(stack.core, stack.outside), args.band)
    design = design_rule_of_thumb(stack.core, stack.outside, band)
    dressed = dataclasses.replace(stack, left_arc=design.arc_cell, right_arc=design.arc_cell)
    save_stack(dressed, args.output)
    _write_json("-", {
        "written": str(args.output),
        "target_energy_meV": design.target_energy,
        "achieved_phi_a": design.achieved_phi_a,
        "achieved_mu_a": design.achieved_mu_a,
        "arc_cell": stack_to_dict(dressed)["left_arc"],
    })


def _cmd_arc_evaluate(args) -> None:
    stack = load_stack(args.stack)
    band = _pick_band(as_model(stack.core, stack.outside), args.band)
    bare = dataclasses.replace(stack, left_arc=None, right_arc=None)
    grid = EnergyGrid.linear(*band.interior(1e-6), _count(args, 2048))
    summary = {
        "band_lower_meV": band.lower,
        "band_upper_meV": band.upper,
        "avg_T": band_average_transmission(stack, band, grid),
        "avg_T_core_only": band_average_transmission(bare, band, grid),
        "has_arcs": stack.left_arc is not None,
    }
    _write_json(args.output, summary)
    if args.csv:
        t_bare = abs(amplitudes(stack_matrix(grid.samples, bare)).t) ** 2
        t_full = abs(amplitudes(stack_matrix(grid.samples, stack)).t) ** 2
        _write_csv(args.csv, _config_header(args), ["E_meV", "T_core", "T_stack"],
                   zip(grid.samples, t_bare, t_full))


# --- tdse ----------------------------------------------------------------------

def _tdse_predictions(stack: StackSpec, band: Band, grid, packet, x_sep, x_d) -> dict:
    """The stationary predictions, made from the plan before the run, so that a
    packet they refuse (its spectrum reaching k <= 0) never runs.  The Bloch
    average covers the band's interior only; ``bloch_spectral_weight`` is the
    share of the packet's spectral weight that lies there."""
    packet_pred = stationary_packet_delay(stack, packet, x_sep, x_d, grid.t_final)
    lo, hi = band.interior(5e-3)
    curve = timing_curve(stack.core, stack.outside, stack.replicas,
                         EnergyGrid.linear(lo, hi, 1200), band=band)
    bloch = spectral_average(curve.energies, curve.tau_bloch_total, packet, stack.outside)
    # the lead wavenumbers at the curve's ends and at E0, then the Gaussian's share between
    k_lo, k0, k_hi = (dataclasses.replace(packet, E0=e).k0(stack.outside)
                      for e in (curve.energies[0], packet.E0, curve.energies[-1]))
    s = math.sqrt(2.0) * packet.sigma_x
    weight = 0.5 * (math.erf(s * (k_hi - k0)) - math.erf(s * (k_lo - k0)))
    return {"bloch_spectral_fs": bloch, "bloch_spectral_weight": weight,
            "stationary_packet_fs": packet_pred}


def _cmd_tdse(args) -> None:
    stack = load_stack(args.stack)
    band = _pick_band(as_model(stack.core, stack.outside), 1)
    grid, packet, x_sep, x_d = plan_run(
        stack, args.E0, sigma_x=args.sigma_x, dx=args.dx, dt=args.dt,
        extra_time=args.extra_time,
    )
    if args.x_detector is not None:
        if not (x_sep < args.x_detector <= x_d):  # the grid ends ten widths past x_d
            raise ValidationError(
                f"detector at {args.x_detector} nm must sit between the stack separator "
                f"at {x_sep} nm and the planned detector at {x_d} nm"
            )
        x_d = args.x_detector

    preds = _tdse_predictions(stack, band, grid, packet, x_sep, x_d)
    result, run, free = measure_delay(stack, grid, packet, x_sep, x_d)

    series_path = f"{args.output}_series.csv"
    rows = zip(run.times, run.beyond_prob, run.centroid,
               free.beyond_prob, free.centroid)
    _write_csv(series_path, _config_header(args),
               ["t_fs", "beyond_prob", "centroid_nm", "beyond_prob_free",
                "centroid_free_nm"], rows)
    summary = {
        "E0_meV": args.E0,
        "sigma_x_nm": args.sigma_x,
        "dx_nm": args.dx,
        "dt_fs": args.dt,
        "x_separator_nm": x_sep,
        "x_detector_nm": x_d,
        "arrival_detected_fs": result.arrival_detected,
        "arrival_free_fs": result.arrival_free,
        "delay_fs": result.delay,
        "transmitted_fraction": result.transmitted_fraction,
        "norm_drift": run.norm_drift,
        "energy_drift_rel": run.energy_drift,
        "left_outflow": run.left_outflow,
        "right_outflow": run.right_outflow,
        "predictions": preds,
        "series": series_path,
    }
    _write_json(f"{args.output}_summary.json", summary)
    _write_json("-", summary)


# --- reproduce ------------------------------------------------------------------

def _cmd_reproduce(args) -> None:
    k = args.figure
    if k != 9 and args.sigma_x is not None:
        raise ValidationError("--sigma-x shapes only figure 9's packets")
    if args.sigma_x is None:
        args.sigma_x = 90.0  # echoed in every figure's header
    outdir, header = Path(args.outdir), _config_header(args)

    def write(name: str, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
        outdir.mkdir(parents=True, exist_ok=True)  # with its first file: a refused run leaves none
        _write_csv(str(outdir / name), header, columns, rows)

    if k <= 6:
        columns, rows = _play_figure(k, _count(args, 1200))
        write(f"fig{k}.csv", columns, rows)
        return

    stack = representative_stack(5)
    model = as_model(stack.core, stack.outside)
    band = _pick_band(model, 1)
    n = stack.replicas
    if k in (7, 8):
        peaks, _ = fit_extrema(model, None, n, band)
        grid = EnergyGrid.linear(*band.interior(5e-3), _count(args, 1600))
        curve = timing_curve(model, None, n, grid, band=band,
                             refine=[(pk.E_m, pk.Gamma_m) for pk in peaks])
        if k == 7:
            write("fig7.csv", *_timing_table(curve))
        else:
            ap = approx_curves(model, None, n, band, EnergyGrid(curve.energies))
            write("fig8.csv", ["E_meV", "tau_ph_fs", "tau_approx_fs", "T_N", "T_approx"],
                  zip(curve.energies, curve.tau_ph, ap.tau_ph, curve.t2, ap.t2))
        return

    # Figure 9: the wave-packet experiment on the ARC-terminated array, its
    # runs planned and predicted (which validates --sigma-x) before any file
    # is written or packet runs.
    E = EnergyGrid.linear(*band.interior(5e-3), _count(args, 400)).samples
    design = design_rule_of_thumb(stack.core, stack.outside, band)
    dressed = dataclasses.replace(stack, left_arc=design.arc_cell,
                                  right_arc=design.arc_cell)
    plans = {e0: plan_run(dressed, e0, sigma_x=args.sigma_x) for e0 in (57.0, 58.5, 60.0)}
    preds = {e0: _tdse_predictions(dressed, band, *plan) for e0, plan in plans.items()}
    write("fig9_curve.csv", ["E_meV", "T_stack", "tau_ph_fs", "bloch_fs", "free_fs"],
          zip(E, abs(amplitudes(stack_matrix(E, dressed)).t) ** 2,
              stack_phase_time(dressed, E), n * bloch_time(model, None, E, band=band),
              free_time(dressed.width, E, dressed.outside)))

    point_rows = []
    for e0, plan in plans.items():
        result, *_ = measure_delay(dressed, *plan)
        point_rows.append((e0, result.delay, preds[e0]["bloch_spectral_fs"],
                           preds[e0]["stationary_packet_fs"], result.transmitted_fraction))
    write("fig9_points.csv",
          ["E0_meV", "delay_fs", "bloch_avg_fs", "packet_pred_fs", "transmitted_fraction"],
          point_rows)


# --- parser --------------------------------------------------------------------

def _add_model_flags(p: argparse.ArgumentParser, cells: bool = True) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--stack", help="stack JSON file")
    src.add_argument("--play", action="store_true", help="use the closed-form single-band model")
    if cells:  # kard's single-cell angles do not depend on N
        p.add_argument("--N", type=int, default=None,
                       help="number of cells (default: stack replicas, or 9 for --play)")


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--emin", type=float, default=None, help="sweep start (meV)")
    p.add_argument("--emax", type=float, default=None, help="sweep end (meV)")
    p.add_argument("--count", type=int, default=None, help="number of samples")
    p.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sltime",
        description="transmission, band-structure, and traversal-time sweeps "
                    "for finite superlattices",
    )
    parser.add_argument("--version", action="version", version=f"sltime {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kard", help="single-cell angles (phi, mu, chi) vs energy")
    _add_model_flags(p, cells=False)
    _add_sweep_flags(p)
    p.set_defaults(func=_cmd_kard)

    p = sub.add_parser("transmission", help="N-cell transmission sweep")
    _add_model_flags(p)
    _add_sweep_flags(p)
    p.set_defaults(func=_cmd_transmission)

    p = sub.add_parser("phasetime", help="phase time with envelopes and Bloch time")
    _add_model_flags(p)
    _add_sweep_flags(p)
    p.add_argument("--band", type=int, default=1, help="allowed-band index (1-based)")
    p.set_defaults(func=_cmd_phasetime)

    p = sub.add_parser("dwell", help="dwell-time decomposition over a window")
    p.add_argument("--stack", required=True, help="stack JSON file")
    _add_sweep_flags(p)
    p.add_argument("--band", type=int, default=1, help="allowed-band index (1-based)")
    p.add_argument("--xl", type=float, default=None, help="window left edge (nm)")
    p.add_argument("--xr", type=float, default=None, help="window right edge (nm)")
    p.set_defaults(func=_cmd_dwell)

    p = sub.add_parser("resonances", help="peak/valley fit tables")
    _add_model_flags(p)
    _add_sweep_flags(p)
    p.add_argument("--band", type=int, default=1, help="allowed-band index (1-based)")
    p.add_argument("--curves", default=None,
                   help="also write the piecewise approximation sweep here")
    p.set_defaults(func=_cmd_resonances)

    p = sub.add_parser("playmodel", help="closed-form model figure sweeps")
    p.add_argument("--figure", type=int, required=True, choices=[1, 2, 3, 4, 5, 6])
    p.add_argument("--count", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_playmodel)

    p = sub.add_parser("arc", help="anti-reflection end-cell design/evaluation")
    arcsub = p.add_subparsers(dest="arc_command", required=True)
    d = arcsub.add_parser("design", help="design matching end cells for a bare stack")
    d.add_argument("--stack", required=True)
    d.add_argument("--band", type=int, default=1)
    d.add_argument("-o", "--output", required=True, help="dressed stack JSON path")
    d.set_defaults(func=_cmd_arc_design)
    e = arcsub.add_parser("evaluate", help="band-average transmission with/without end cells")
    e.add_argument("--stack", required=True)
    e.add_argument("--band", type=int, default=1)
    e.add_argument("--count", type=int, default=None)
    e.add_argument("--csv", default=None, help="also write a T(E) sweep here")
    e.add_argument("-o", "--output", default=None, help="JSON summary path (default stdout)")
    e.set_defaults(func=_cmd_arc_evaluate)

    p = sub.add_parser("tdse", help="wave-packet run with delay extraction")
    p.add_argument("--stack", required=True)
    p.add_argument("--E0", type=float, required=True, help="packet central energy (meV)")
    p.add_argument("--sigma-x", type=float, default=60.0, help="packet width (nm)")
    p.add_argument("--dx", type=float, default=0.25, help="grid spacing (nm)")
    p.add_argument("--dt", type=float, default=1.0, help="time step (fs)")
    p.add_argument("--x-detector", type=float, default=None,
                   help="centroid detector position (nm; default from planner)")
    p.add_argument("--extra-time", type=float, default=0.0,
                   help="extend the run window (fs); needed at narrow resonances")
    p.add_argument("-o", "--output", default="tdse_run",
                   help="artifact prefix (writes PREFIX_series.csv, PREFIX_summary.json)")
    p.set_defaults(func=_cmd_tdse)

    p = sub.add_parser("reproduce", help="emit the CSVs behind one of the nine figures")
    p.add_argument("--figure", type=int, required=True,
                   choices=[1, 2, 3, 4, 5, 6, 7, 8, 9])
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--sigma-x", type=float, default=None,
                   help="packet width for figure 9 (nm, default 90)")
    p.add_argument("--outdir", default="figures")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
