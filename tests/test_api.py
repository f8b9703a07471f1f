"""The public API: each module's ``__all__`` is its one declaration, and
``sltime`` re-exports every one of those names."""

import importlib
import re
from pathlib import Path

import sltime

MODULES = ["errors", "medium", "tmatrix", "kard", "timing", "resonance", "scattering",
           "playmodel", "arc", "tdse"]

#: ``sltime.__all__`` as it was when the package kept a hand-written copy.
HAND_KEPT = """
SltimeError ValidationError NumericError NearBandEdgeError NoTransmissionError
CONSTANTS Layer CellSpec StackSpec EnergyGrid load_stack save_stack
representative_cell representative_stack TransferMatrix Amplitudes cell_matrix
stack_matrix amplitudes KardParams KardDerivatives Band decompose reconstruct
band_structure energy_at_phase kard_derivatives TimingCurve bloch_time phase_time
envelopes timing_curve transmission_sweep PeakFit ValleyFit locate_extrema fit_peak
fit_valley fit_extrema approx_curves DwellResult SmithMatrix smith_matrix
interior_wavefunction dwell_time PlayModelSpec PLAY_MODEL play_kard play_matrix
play_derivatives ArcDesign design_rule_of_thumb compose_with_arc
band_average_transmission Grid1D WavePacket DelayResult evolve packet_delay plan_run
spectral_average stationary_packet_delay __version__
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
    assert len(HAND_KEPT) == 63
    assert set(HAND_KEPT) <= set(sltime.__all__)


def test_benchmark_names_resolve_on_sltime():
    """Every ``sl.<name>`` and ``sltime.<name>`` the benchmark workloads read
    is an attribute of the package."""
    text = Path("perfbench/workloads.py").read_text()
    names = set(re.findall(r"\b(?:sl|sltime)\.([A-Za-z_]\w*)", text))
    assert len(names) >= 20
    assert not [name for name in sorted(names) if not hasattr(sltime, name)]
