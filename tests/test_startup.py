"""Start-up: a launch loads only what its command uses.

Each test runs a fresh interpreter, since this one has loaded every layer.
``-X importtime`` lists the modules a process imported through the import
statement; a layer that ``import sltime`` registers lazily runs its body
outside that timer, so whether a layer ran is read from its module's type:
a registered layer stays a ``LazyLoader`` subclass of ``types.ModuleType``
until its first attribute access.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("argv, code", [(["--version"], 0), (["--help"], 0),
                                        (["kard", "--help"], 0), (["nosuchcommand"], 2)])
def test_help_and_version_load_no_numpy(argv, code):
    proc = _python("-X", "importtime", "-m", "sltime", *argv)
    assert proc.returncode == code, proc.stderr[-2000:]
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "sltime.cli" in imported  # the listing really covers the run
    assert not [m for m in imported if m.split(".")[0] == "numpy"], argv


#: prints, after one command, which layers ran
_RAN = """
import json, sys, types
import sltime
from sltime.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, [n for n in sltime._LAYERS if type(sys.modules["sltime." + n])
                         is types.ModuleType]]))
"""


@pytest.mark.parametrize("argv", [["kard", "--stack", "stacks/rep5.json"],
                                  ["transmission", "--stack", "stacks/rep5.json"],
                                  ["phasetime", "--stack", "stacks/rep5.json"]])
def test_a_command_runs_only_its_layers(argv, tmp_path):
    proc = _python("-c", _RAN, *argv, "-o", str(tmp_path / "out.csv"))
    assert proc.returncode == 0, proc.stderr[-2000:]
    code, ran = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert {"errors", "medium", "kard"} <= set(ran)  # the check can see a layer run
    assert not {"tdse", "scattering", "resonance"} & set(ran), argv


#: installs perfbench's tracer after the imports of one of its paths, and
#: reports each wrapped name's module while installed and after uninstall
_TRACED = """
import json, sys
sys.path.insert(0, "perfbench")
from tracer import AGGREGATED, SPANNED, Tracer
{imports}
def owners():
    return [[layer, name, getattr(sys.modules["sltime." + layer], name).__module__]
            for table in (SPANNED, AGGREGATED) for layer, names in table.items()
            for name in names]
def cached():  # the package's own binding of a public name, if it has one
    return getattr(vars(sltime).get("load_stack"), "__module__", None)
tracer = Tracer()
tracer.install()
installed = [owners(), cached()]
tracer.uninstall()
print(json.dumps([installed, [owners(), cached()]]))
"""


@pytest.mark.parametrize("imports, cached", [
    # the `cli` workload: perfbench/tracer.py's main
    ("import sltime.cli", None),
    # the `campaign` workload's set-up, which reads public names off the package
    ("import sltime; from sltime.tdse import free_reference; sltime.load_stack",
     "sltime.medium"),
])
def test_tracer_layers_resolve_on_each_workload_path(imports, cached):
    """perfbench's tracer reads ``sys.modules["sltime.<layer>"]`` for every
    layer in its tables: each must be there, lazily loaded or not, and each
    name wrapped while the tracer is installed and restored after, in its
    layer and wherever the package has cached it."""
    proc = _python("-c", _TRACED.format(imports=imports))
    assert proc.returncode == 0, proc.stderr[-2000:]
    (installed, cached_installed), (restored, cached_restored) = json.loads(proc.stdout)
    assert len(installed) >= 20
    assert [m for _, _, m in installed] == ["tracer"] * len(installed)
    assert [m for _, _, m in restored] == [f"sltime.{layer}" for layer, _, _ in restored]
    assert (cached_installed, cached_restored) == (cached and "tracer", cached)
