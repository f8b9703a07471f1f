"""Command-line contract: exit codes, header format, precision, determinism.

Everything runs in-process through ``main`` so coverage tools see it and the
tests stay fast; the slow wave-packet subcommand is exercised end to end by
the acceptance suite instead.
"""

import importlib
import importlib.util
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from sltime import cli, tdse
from sltime.cli import build_parser, main
from sltime.kard import as_model, decompose
from sltime.medium import (
    CellSpec, EnergyGrid, Layer, StackSpec, load_stack, representative_cell, save_stack,
)
from sltime.resonance import fit_peak
from sltime.timing import transmission_sweep

STACK = "stacks/rep5.json"
OUT = Layer(9.5, 0.0, 0.067)


def _read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True, dtype=None,
                         encoding="utf8", skip_header=2)


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bad_figure_choice_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["playmodel", "--figure", "7"])
    assert exc.value.code == 2


def test_missing_stack_file_exits_3_and_names_path(capsys, tmp_path):
    code = main(["transmission", "--stack", str(tmp_path / "nope.json")])
    assert code == 3
    assert "nope.json" in capsys.readouterr().err


def test_unreachable_band_exits_4(capsys):
    code = main(["resonances", "--play", "--band", "2"])
    assert code == 4
    assert "band" in capsys.readouterr().err


def test_header_format_and_byte_identical_reruns(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["transmission", "--stack", STACK, "--emin", "52", "--emax", "64",
            "--count", "50", "-o", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first

    lines = first.decode().splitlines()
    assert lines[0] == "# sltime transmission v0.1.0"
    assert lines[1].startswith("# config: ")
    cfg = json.loads(lines[1][len("# config: "):])
    assert cfg["stack"] == STACK and cfg["count"] == 50
    assert lines[2] == "E_meV,T_N,env_min"
    assert len(lines) == 3 + 50


def test_csv_floats_round_trip_to_full_precision(tmp_path):
    out = tmp_path / "sweep.csv"
    main(["transmission", "--stack", STACK, "--emin", "53", "--emax", "63",
          "--count", "40", "-o", str(out)])
    data = _read_csv(out)
    model = as_model(representative_cell(), OUT)
    sweep = transmission_sweep(model, None, 5, EnergyGrid(data["E_meV"]))
    assert np.array_equal(data["T_N"], sweep.t2)  # 17 significant digits: exact
    for row in data[::7]:
        E = float(row["E_meV"])
        p = decompose(model.matrix(E))
        t2 = 1.0 / (1.0 + math.sinh(p.mu) ** 2 * math.sin(5 * p.phi) ** 2)
        # one energy takes the math module's elementary functions, an array
        # numpy's, which may round differently in the last bit
        assert float(row["T_N"]) == pytest.approx(t2, rel=1e-14)


def test_transmission_shows_four_strong_peaks(tmp_path):
    out = tmp_path / "band1.csv"
    main(["transmission", "--stack", STACK, "--emin", "51.75", "--emax", "65.3",
          "--count", "2400", "-o", str(out)])
    d = _read_csv(out)
    T = d["T_N"]
    interior = (T[1:-1] > T[:-2]) & (T[1:-1] > T[2:]) & (T[1:-1] > 0.9)
    peaks = d["E_meV"][1:-1][interior]
    assert len(peaks) == 4
    assert peaks == pytest.approx([52.81, 55.86, 60.02, 63.80], abs=0.02)


def test_resonance_table_matches_direct_fit(tmp_path, rep_band):
    out = tmp_path / "res.csv"
    assert main(["resonances", "--stack", STACK, "-o", str(out)]) == 0
    d = _read_csv(out)
    kinds = list(d["kind"])
    assert kinds == ["peak"] * 4 + ["valley"] * 5
    fit = fit_peak(representative_cell(), OUT, 5, 1, band=rep_band)
    assert float(d["E_meV"][0]) == pytest.approx(fit.E_m, rel=1e-12)
    assert float(d["Gamma_meV"][0]) == pytest.approx(fit.Gamma_m, rel=1e-12)
    flags = [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[3:]
             if line.startswith("valley")]
    assert flags == ["true", "false", "false", "false", "true"]


def test_kard_sweep_classifies_gap_rows(tmp_path):
    out = tmp_path / "angles.csv"
    main(["kard", "--stack", STACK, "--emin", "40", "--emax", "70",
          "--count", "300", "-o", str(out)])
    d = _read_csv(out)
    forbidden = d["band"] == "forbidden"
    allowed = d["band"] == "allowed"
    assert forbidden.any() and allowed.any()
    assert np.isnan(d["mu"][forbidden]).all()
    assert np.isfinite(d["mu"][allowed]).all()
    assert np.all(np.abs(d["cos_phi"][forbidden]) > 1.0)


def test_phasetime_columns_and_envelope_ordering(tmp_path):
    out = tmp_path / "pt.csv"
    main(["phasetime", "--stack", STACK, "--count", "120", "-o", str(out)])
    d = _read_csv(out)
    assert d.dtype.names == ("E_meV", "T_N", "tau_ph_fs", "env_max_fs",
                             "env_min_fs", "bloch_fs")
    assert np.all(d["env_max_fs"] >= d["bloch_fs"])
    assert np.all(d["bloch_fs"] >= d["env_min_fs"])


def test_dwell_closed_form_tracks_quadrature(tmp_path):
    out = tmp_path / "dwell.csv"
    code = main(["dwell", "--stack", STACK, "--emin", "56", "--emax", "60",
                 "--count", "5", "-o", str(out)])
    assert code == 0
    d = _read_csv(out)
    assert np.allclose(d["tau_dwell_fs"], d["tau_numeric_fs"], rtol=1e-6)


def test_playmodel_figure_contract(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["playmodel", "--figure", "3", "--count", "64", "-o", str(out)]) == 0
    d = _read_csv(out)
    assert d.dtype.names == ("E_meV", "tau_ph_fs", "env_max_fs", "env_min_fs", "T9")
    assert len(d) == 64


def test_arc_design_then_evaluate(tmp_path, capsys):
    dressed_path = tmp_path / "dressed.json"
    assert main(["arc", "design", "--stack", STACK, "-o", str(dressed_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["target_energy_meV"] == pytest.approx(57.8777907484534, rel=1e-9)
    assert summary["achieved_phi_a"] == pytest.approx(0.5 * math.pi, abs=1e-6)

    dressed = load_stack(dressed_path)
    assert dressed.left_arc is not None and dressed.right_arc is not None
    assert dressed.left_arc == dressed.right_arc

    # designing again from an already-dressed stack must be refused
    assert main(["arc", "design", "--stack", str(dressed_path),
                 "-o", str(tmp_path / "x.json")]) == 3

    eval_path = tmp_path / "eval.json"
    assert main(["arc", "evaluate", "--stack", str(dressed_path),
                 "-o", str(eval_path)]) == 0
    ev = json.loads(eval_path.read_text())
    assert ev["has_arcs"] is True
    assert ev["avg_T"] == pytest.approx(0.7940166790988143, rel=1e-9)
    assert ev["avg_T_core_only"] == pytest.approx(0.14476127374975292, rel=1e-9)


def test_arc_design_without_barrier_exits_4(tmp_path, capsys):
    """With every potential zero the barrier scale changes nothing, so
    Tr M_A has no sign change to bracket: the designer must refuse, not
    return a cell."""
    well, other = Layer(3.0, 0.0, 0.067), Layer(3.0, 0.0, 0.0919)
    flat = StackSpec(core=CellSpec((well, other, well), symmetric=True), replicas=5,
                     outside=OUT)
    save_stack(flat, tmp_path / "flat.json")
    assert main(["arc", "design", "--stack", str(tmp_path / "flat.json"),
                 "-o", str(tmp_path / "x.json")]) == 4
    assert "no viable design" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("command", ["kard", "transmission"])
def test_grid_below_raised_lead_band_bottom_exits_3(command, capsys, tmp_path):
    """--emin at or below a non-zero lead band bottom is an input error."""
    data = json.loads(open(STACK).read())
    data["outside"]["V_meV"] = 10.0
    raised = tmp_path / "raised.json"
    raised.write_text(json.dumps(data))
    code = main([command, "--stack", str(raised), "--emin", "5", "--emax", "80",
                 "-o", str(tmp_path / "out.csv")])
    assert code == 3
    assert "lead band bottom (10.0 meV)" in capsys.readouterr().err
    # the default window starts above the raised band bottom
    assert main([command, "--stack", str(raised), "--count", "40",
                 "-o", str(tmp_path / "out.csv")]) == 0
    assert _read_csv(tmp_path / "out.csv")["E_meV"][0] > 10.0


@pytest.mark.parametrize("argv", [
    "kard --stack {stack} --count 0 -o {out}",
    "transmission --play --count 0 -o {out}",
    "phasetime --stack {stack} --count 0 -o {out}",
    "dwell --stack {stack} --count 0 -o {out}",
    "resonances --play --count 0 --curves {out} -o {out}.table",
    "playmodel --figure 1 --count 0 -o {out}",
    "arc evaluate --stack {stack} --count 0 -o {out}",
    "reproduce --figure 4 --count 0 --outdir {out}",
], ids=["kard", "transmission", "phasetime", "dwell", "resonances", "playmodel",
        "arc-evaluate", "reproduce"])
def test_zero_count_exits_3(argv, capsys, tmp_path):
    """--count 0 is an invalid sample count, not a request for the default,
    and the failed command writes no file."""
    out = tmp_path / "out"
    assert main(shlex.split(argv.format(stack=STACK, out=out))) == 3
    assert "count must be >= 2" in capsys.readouterr().err
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]


@pytest.mark.parametrize("argv", [
    "transmission --stack {stack} --N 0",
    "phasetime --play --N 0",
    "resonances --stack {stack} --N 0",
], ids=["transmission", "phasetime", "resonances"])
def test_zero_cells_exits_3(argv, capsys, tmp_path):
    """--N 0 is an invalid cell count, not a request for the default."""
    out = tmp_path / "out.csv"
    assert main([*shlex.split(argv.format(stack=STACK)), "-o", str(out)]) == 3
    assert "N = 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    "transmission --play --count 3", "phasetime --stack {stack} --count 3", "resonances --play",
])
@pytest.mark.parametrize("n", ["-3", "0"])
def test_model_flag_N_below_one_exits_3_for_every_command(command, n, capsys, tmp_path):
    """--N below 1 is refused by every command that takes it."""
    out = tmp_path / "out.csv"
    argv = [*shlex.split(command.format(stack=STACK)), "--N", n, "-o", str(out)]
    assert main(argv) == 3
    assert f"N = {n}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("band", ["0", "-1"])
def test_band_below_one_exits_3(band, capsys, tmp_path):
    """--band counts from 1; 0 and -1 must not index the scan's last band."""
    out = tmp_path / "out.csv"
    assert main(["resonances", "--stack", STACK, "--band", band, "-o", str(out)]) == 3
    assert "--band counts from 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("kard", "--band"), ("transmission", "--band"), ("kard", "--N"),
], ids=["kard", "transmission", "kard-N"])
def test_band_flag_is_refused_where_it_would_be_ignored(command, flag, capsys, tmp_path):
    """kard and transmission sweep the whole window, so --band 2 is an
    unknown flag there (exit 2), not a silently ignored one; so is kard's
    --N 2, since a single cell's angles do not depend on N."""
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exit_:
        main([command, "--stack", STACK, flag, "2", "-o", str(out)])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--count", "400"], ["--emin", "55"], ["--emax", "61"],
    ["--count", "400", "--emin", "55", "--emax", "61"],
], ids=["count", "emin", "emax", "all"])
def test_resonances_sweep_flags_need_curves(flags, capsys, tmp_path):
    """--emin, --emax and --count shape only the --curves sweep; without
    it they would be echoed in the header and silently ignored."""
    out = tmp_path / "out.csv"
    assert main(["resonances", "--stack", STACK, *flags, "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert "--curves" in err and flags[0] in err
    assert not out.exists()
    curves = tmp_path / "curves.csv"
    assert main(["resonances", "--stack", STACK, *flags, "--curves", str(curves),
                 "-o", str(out)]) == 0
    assert out.exists() and curves.exists()


@pytest.mark.parametrize("model, count", [(["--stack", STACK], "5"), (["--play"], "3")],
                         ids=["rep5", "play"])
def test_resonances_curves_on_a_coarse_grid(model, count, tmp_path):
    """A grid with no sample inside any fitted window is bridged from the
    windows' edge values on either side of each sample."""
    curves = tmp_path / "curves.csv"
    assert main(["resonances", *model, "--curves", str(curves), "--count", count,
                 "-o", str(tmp_path / "table.csv")]) == 0
    rows = _read_csv(curves)
    assert len(rows) == int(count)
    assert all(np.isfinite(rows[name]).all() for name in rows.dtype.names)


@pytest.mark.parametrize("argv", [
    "phasetime --stack {stack} --emin 40 --emax 45 --count 50 -o {out}",
    "phasetime --stack {stack} --emin 40 --emax 70 --count 50 -o {out}",
    "resonances --stack {stack} --curves {out}.curves --emin 40 --emax 45 --count 5 -o {out}",
], ids=["phasetime-gap", "phasetime-across-the-band", "resonances-curves-gap"])
def test_in_band_sweep_refuses_the_gap(argv, capsys, tmp_path):
    """The single-band closed forms hold only inside their band: a sample in
    the gap below band 1 exits 4, names that energy and writes no file,
    instead of dropping the sample or writing a lineshape value there."""
    out = tmp_path / "out.csv"
    assert main(shlex.split(argv.format(stack=STACK, out=out))) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric error: E = 40.0 meV is outside band 1 [51.7085")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("k", [7, 8])
def test_reproduce_honours_count(k, capsys, tmp_path):
    """--count sets the base grid of figures 7 and 8 (the default, 1600,
    writes the committed figure); the resonance refinement comes on top."""
    def rows(path):
        return [line for line in path.read_text().splitlines() if not line.startswith("#")]

    assert main(["reproduce", "--figure", str(k), "--count", "50",
                 "--outdir", str(tmp_path)]) == 0
    fewer = rows(tmp_path / f"fig{k}.csv")
    assert 50 < len(fewer) - 1 < len(rows(Path("figures") / f"fig{k}.csv")) - 1
    assert main(["reproduce", "--figure", str(k), "--count", "1",
                 "--outdir", str(tmp_path / "one")]) == 3
    assert "count must be >= 2" in capsys.readouterr().err
    assert not (tmp_path / "one" / f"fig{k}.csv").exists()


def test_reproduce_figure_9_refuses_a_bad_count_before_any_packet_run(capsys, tmp_path):
    assert main(["reproduce", "--figure", "9", "--count", "1", "--outdir", str(tmp_path)]) == 3
    assert "count must be >= 2" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("flags", ["--figure 9 --sigma-x nan", "--figure 7 --count 1",
                                   "--figure 1 --sigma-x 5", "--figure 8 --sigma-x 90"],
                         ids=["fig9-sigma-nan", "fig7-count-1", "fig1-sigma-x", "fig8-sigma-x"])
def test_refused_reproduce_leaves_no_outdir(flags, capsys, tmp_path):
    """--outdir is made with the first file, after planning, so a refused
    run leaves no empty directory behind.  --sigma-x shapes only figure 9,
    so figures 1-8 refuse it, even at its default, rather than echo it in
    the header and ignore it."""
    assert main(["reproduce", *flags.split(), "--outdir", str(tmp_path / "od" / "x")]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "od").exists()


@pytest.mark.parametrize("argv", [
    "tdse --stack {stack} --E0 58.5 --dx nan -o {out}",
    "tdse --stack {stack} --E0 58.5 --dt nan -o {out}",
    "tdse --stack {stack} --E0 58.5 --sigma-x nan -o {out}",
    "tdse --stack {stack} --E0 58.5 --sigma-x inf -o {out}",
    "tdse --stack {stack} --E0 58.5 --extra-time nan -o {out}",
    "tdse --stack {stack} --E0 nan -o {out}",
    "reproduce --figure 9 --sigma-x nan --outdir {out}",
    "dwell --stack {stack} --xr inf -o {out}",
    "dwell --stack {stack} --xl=-inf -o {out}",
], ids=["dx-nan", "dt-nan", "sigma-nan", "sigma-inf", "extra-time-nan", "E0-nan",
        "fig9-sigma-nan", "dwell-xr-inf", "dwell-xl-inf"])
def test_non_finite_flag_exits_3_before_anything_is_written(argv, capsys, tmp_path):
    """A NaN or infinite run parameter is bad input: every check states its
    passing condition, so it fails where the value is first used, before a
    packet runs or a file is written."""
    assert main(shlex.split(argv.format(stack=STACK, out=tmp_path / "out"))) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]


@pytest.mark.parametrize("argv, message", [
    ("tdse --stack {stack} --E0 58.5 --extra-time -1000 -o {out}", "0 <= extra_time"),
    ("tdse --stack {stack} --E0 58.5 --extra-time -2500 -o {out}", "0 <= extra_time"),
    ("tdse --stack {stack} --E0 58.5 --sigma-x 1.5 -o {out}", "use a wider packet"),
    ("reproduce --figure 9 --sigma-x 1.5 --outdir {out}", "use a wider packet"),
    ("tdse --stack {stack} --E0 58.5 --sigma-x 30 --dx 1 --dt 30000 -o {out}", "need dt <="),
], ids=["extra-time-negative", "extra-time-very-negative", "spectrum-reaches-k0",
        "fig9-spectrum-reaches-k0", "dt-longer-than-run"])
def test_bad_packet_input_is_refused_before_any_run(argv, message, monkeypatch, capsys,
                                                    tmp_path):
    """A negative --extra-time, a packet whose spectrum reaches k <= 0 and a
    time step longer than the planned run are bad input: refused while
    planning, before a packet runs or a file is written."""
    def no_run(*args, **kwargs):
        raise AssertionError("a packet ran")

    monkeypatch.setattr(tdse, "evolve", no_run)
    assert main(shlex.split(argv.format(stack=STACK, out=tmp_path / "out"))) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]


def _edit_rep5(path, edit):
    data = json.loads(open(STACK).read())
    edit(data)
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(replicas=2.7), "replicas must be an integer"),
    (lambda d: d.update(replicas=True), "replicas must be an integer"),
    (lambda d: d.update(left_arcs=d.pop("left_arc")), "unknown key"),
    (lambda d: d["core"].update(symmetrical=True), "unknown key"),
    (lambda d: d["core"]["layers"][1].update(V_mev=290.0), "unknown key"),
    (lambda d: d["core"]["layers"][0].update(width_nm=math.inf), "width must be finite"),
    (lambda d: d["outside"].update(mass_ratio=math.inf), "mass_ratio must be finite"),
    (lambda d: d["core"]["layers"][0].update(width_nm="3nm"), "must be a number"),
    (lambda d: d["core"].update(symmetric="no"), "must be true or false"),
], ids=["fractional-replicas", "boolean-replicas", "unknown-stack-key", "unknown-cell-key",
        "unknown-layer-key", "infinite-width", "infinite-mass", "non-numeric-width",
        "non-boolean-symmetric"])
def test_malformed_stack_file_exits_3(edit, message, capsys, tmp_path):
    stack = _edit_rep5(tmp_path / "bad.json", edit)
    code = main(["transmission", "--stack", stack, "--count", "20",
                 "-o", str(tmp_path / "out.csv")])
    assert code == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "kard --stack stacks -o {out}/k.csv",
    "kard --stack {out}/latin1.json -o {out}/k.csv",
    "kard --stack {stack} -o {out}/missing/k.csv",
    "reproduce --figure 1 --outdir {out}/file",
], ids=["stack-is-a-directory", "stack-not-utf8", "output-directory-missing",
        "outdir-is-a-file"])
def test_file_error_exits_3(argv, capsys, tmp_path):
    """A file that cannot be read or written is bad input: exit 3 with one
    ``error:`` line, not a traceback."""
    (tmp_path / "latin1.json").write_bytes('{"core": "\u00e9"}'.encode("latin-1"))
    (tmp_path / "file").write_text("")
    assert main(shlex.split(argv.format(stack=STACK, out=tmp_path))) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_transmission_refuses_an_overflowing_product(capsys, tmp_path):
    """With rep5's barrier widened to 200 nm the five-cell product overflows
    to inf - inf in the gaps; the sweep exits 4 at the first such energy and
    writes no file instead of T_N = nan."""
    stack = _edit_rep5(tmp_path / "opaque.json",
                       lambda d: d["core"]["layers"][1].update(width_nm=200.0))
    out = tmp_path / "out.csv"
    assert main(["transmission", "--stack", stack, "-o", str(out)]) == 4
    assert "|t_N|^2 = nan at E = 1.05 meV" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k", range(1, 9))
def test_reproduce_matches_committed_figures(k, tmp_path):
    """figures/fig<k>.csv is what the code writes today, byte for byte in
    every data row (the header lines echo --outdir)."""
    assert main(["reproduce", "--figure", str(k), "--outdir", str(tmp_path)]) == 0

    def rows(path):
        return [line for line in path.read_text().splitlines() if not line.startswith("#")]

    assert rows(tmp_path / f"fig{k}.csv") == rows(Path("figures") / f"fig{k}.csv")


def test_readme_commands_parse():
    """Every ``sltime …`` line of README.md's code blocks is a valid command
    line; parsing only, nothing runs."""
    lines = [line.split("#")[0] for line in Path("README.md").read_text().splitlines()
             if line.startswith("sltime ")]
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line)[1:]
        args = build_parser().parse_args(argv)
        assert callable(args.func), line


def test_tracer_targets_resolve():
    """Every function the benchmark tracer wraps still exists in its module,
    so ``perfbench/run.py --trace 1`` can install it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", "perfbench/tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for table in (tracer.SPANNED, tracer.AGGREGATED):
        for layer, names in table.items():
            module = importlib.import_module(f"sltime.{layer}")
            for name in names:
                assert callable(getattr(module, name, None)), f"sltime.{layer}.{name}"
