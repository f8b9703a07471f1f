"""The public API: each module's ``__all__`` is its one declaration,
``sltime`` re-exports every one of those names, each name and each default
of it is earned by a caller outside the tests, and the benchmark's calls
bind to it."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import sltime

MODULES = ["errors", "medium", "tmatrix", "kard", "timing", "resonance", "scattering",
           "playmodel", "arc", "tdse"]

#: ``sltime.__all__`` as it was when the package kept a hand-written copy,
#: less ``interior_wavefunction`` and ``play_derivatives``, test-only oracles
#: that left the API.
HAND_KEPT = """
SltimeError ValidationError NumericError NearBandEdgeError NoTransmissionError
CONSTANTS Layer CellSpec StackSpec EnergyGrid load_stack save_stack
representative_cell representative_stack TransferMatrix Amplitudes cell_matrix
stack_matrix amplitudes KardParams KardDerivatives Band decompose reconstruct
band_structure energy_at_phase kard_derivatives TimingCurve bloch_time phase_time
envelopes timing_curve transmission_sweep PeakFit ValleyFit locate_extrema fit_peak
fit_valley fit_extrema approx_curves DwellResult SmithMatrix smith_matrix
dwell_time PlayModelSpec PLAY_MODEL play_kard play_matrix
ArcDesign design_rule_of_thumb compose_with_arc band_average_transmission Grid1D
WavePacket DelayResult evolve packet_delay plan_run spectral_average
stationary_packet_delay __version__
""".split()


def test_public_api_is_declared_once_in_each_module():
    """sltime.__all__ is __version__ and the modules' lists in import order,
    with no name twice, each the module's own object, and nothing that the
    package's former hand-kept list exported is lost."""
    modules = [importlib.import_module(f"sltime.{name}") for name in MODULES]
    assert sltime.__all__ == ["__version__"] + [n for m in modules for n in m.__all__]
    assert len(set(sltime.__all__)) == len(sltime.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(sltime, name) is getattr(module, name), f"{module.__name__}.{name}"
    assert len(HAND_KEPT) == 61
    assert set(HAND_KEPT) <= set(sltime.__all__)


def test_the_library_warns_nowhere():
    """No module of ``sltime`` uses ``warnings``: what a caller should know
    is returned or reported (``sltime tdse``'s ``bloch_spectral_weight``),
    and a check that fails raises."""
    sources = sorted(Path(sltime.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    assert [p.name for p in sources if "warnings" in p.read_text()] == []


def test_benchmark_names_resolve_on_sltime():
    """Every ``sl.<name>`` and ``sltime.<name>`` the benchmark workloads read
    is an attribute of the package."""
    text = Path("perfbench/workloads.py").read_text()
    names = set(re.findall(r"\b(?:sl|sltime)\.([A-Za-z_]\w*)", text))
    assert len(names) >= 20
    assert not [name for name in sorted(names) if not hasattr(sltime, name)]


def _references(path: Path):
    """(identifier, is a bare name, enclosing definitions) for every name
    loaded, attribute read and identifier-shaped string in one source file,
    the strings of an ``__all__`` declaration left out.  A string counts
    because a caller can name a function, as perfbench's tracer tables do."""
    found = []

    def visit(node, chain):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            chain = chain + (node.name,)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, True, chain))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append((node.attr, False, chain))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found.append((node.value, False, chain))
        for child in ast.iter_child_nodes(node):
            visit(child, chain)

    visit(ast.parse(path.read_text()), ())
    return found


def test_public_names_have_callers():
    """Every public name, and every public method and property of a public
    class, is used in ``src/sltime/``, ``scripts/`` or ``perfbench/`` outside
    its own definition: code that only the tests call belongs in the tests.
    A method is matched by the attribute name alone, never by a bare name,
    so one that shares its name with another class's attribute is not seen."""
    root = Path(sltime.__file__).parent
    sources = sorted(root.glob("*.py")) + sorted(Path("scripts").glob("*.py")) \
        + sorted(Path("perfbench").glob("*.py"))
    assert len(sources) >= 18
    uses = [(path.resolve(), *reference) for path in sources
            for reference in _references(path)]

    def used(name, home, own):
        return any(n == name and not (bare and len(own) > 1)
                   and not (path == home and chain[:len(own)] == own)
                   for path, n, bare, chain in uses)

    unused = []
    for name in sltime.__all__:
        obj = getattr(sltime, name)
        defined = inspect.isclass(obj) or inspect.isfunction(obj)
        home = Path(inspect.getsourcefile(obj)).resolve() if defined else None
        if not used(name, home, (name,)):
            unused.append(name)
        if inspect.isclass(obj):
            for attr, value in vars(obj).items():
                value = getattr(value, "__func__", value)
                if not attr.startswith("_") and (inspect.isfunction(value)
                                                 or isinstance(value, property)) \
                        and not used(attr, home, (name, attr)):
                    unused.append(f"{name}.{attr}")
    assert unused == []


#: Every defaulted parameter of the public API, each with a caller outside
#: the tests that omits it; a new default needs a deliberate entry here.
EARNED_DEFAULTS = {
    "CellSpec.symmetric",  # tdse.free_reference
    "StackSpec.left_arc",  # medium.representative_stack
    "StackSpec.right_arc",  # medium.representative_stack
    "EnergyGrid.band_bottom",  # cli._cmd_reproduce, figure 8's grid
    "EnergyGrid.linear.band_bottom",  # cli._play_figure
    "TransferMatrix.ref_energy",  # kard.reconstruct
    "energy_jet.second",  # scattering._origin_jet
    "KardParams.band",  # kard._decompose_one
    "band_structure.outside",  # cli._pick_band
    "timing_curve.refine",  # cli._cmd_phasetime
    "dwell_time.x_left",  # perfbench/workloads.py, the stationary workload
    "dwell_time.x_right",  # perfbench/workloads.py, the stationary workload
    "plan_run.dx",  # cli._cmd_reproduce, figure 9's runs
    "plan_run.dt",  # cli._cmd_reproduce, figure 9's runs
    "plan_run.extra_time",  # cli._cmd_reproduce, figure 9's runs
    "packet_delay.bloch_time_prediction",  # tdse.measure_delay
    "evolve.psi0",  # test seam: the exact-eigenstate oracle of the propagator
    "evolve.monitor_walls",  # test seam: closed-box states live against the walls
}


def _public_callables():
    """(label, callable) for every public function, class and public method;
    the exceptions keep ``Exception``'s own signature."""
    for name in sltime.__all__:
        obj = getattr(sltime, name)
        if inspect.isclass(obj) and issubclass(obj, Exception):
            continue
        if inspect.isclass(obj):
            yield name, obj
            for attr, value in vars(obj).items():
                value = getattr(value, "__func__", value)  # a classmethod's function
                if not attr.startswith("_") and inspect.isfunction(value):
                    yield f"{name}.{attr}", value
        elif callable(obj):
            yield name, obj


def test_public_defaults_are_earned():
    """Required inputs are required: the only defaults are those some caller
    outside the tests omits, plus two test seams of ``evolve``."""
    defaults = {f"{label}.{p.name}"
                for label, fn in _public_callables()
                for p in inspect.signature(fn).parameters.values()
                if p.default is not inspect.Parameter.empty}
    assert defaults == EARNED_DEFAULTS


def _benchmark_calls():
    """(dotted name, positional count, keyword names) of every call of an
    ``sl.``/``sltime.`` callable in the benchmark workloads: a direct call,
    or a function handed to a wrapper, which calls it with the arguments that
    follow it (less the wrapper's own ``tracer``).  Calls with ``*args`` are
    skipped, since their arity is not written out."""
    def dotted(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in ("sl", "sltime") and parts:
            return ".".join(reversed(parts))
        return None

    tree = ast.parse(Path("perfbench/workloads.py").read_text())
    for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name, args = dotted(call.func), call.args
        if name is None:
            handed = [i for i, a in enumerate(args) if dotted(a) is not None]
            if not handed:
                continue
            name, args = dotted(args[handed[0]]), args[handed[0] + 1:]
        if any(isinstance(a, ast.Starred) for a in args):
            continue
        keywords = {k.arg for k in call.keywords} - {"tracer"}
        yield name, len(args), keywords


def test_benchmark_call_shapes_bind():
    """Each call shape of the benchmark binds to the public signature it
    calls, so no required input is missing from the workloads."""
    shapes = set()
    for name, n_args, keywords in _benchmark_calls():
        fn = sltime
        for part in name.split("."):
            fn = getattr(fn, part)
        if callable(fn):
            inspect.signature(fn).bind(*[None] * n_args, **dict.fromkeys(keywords))
            shapes.add((name, n_args, frozenset(keywords)))
    assert {("phase_time", 4, frozenset({"band"})),
            ("evolve", 4, frozenset()),
            ("band_average_transmission", 3, frozenset()),
            ("plan_run", 2, frozenset({"sigma_x", "dx", "dt"}))} <= shapes
    assert len(shapes) >= 20
