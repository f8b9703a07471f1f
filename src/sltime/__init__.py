"""Transmission, band structure, and traversal times of finite superlattices.

The package is organized around the single-cell transfer matrix and its
angle parameterization:

- ``medium``     units, layers, cells, stacks, energy grids, stack files
- ``tmatrix``    plane-wave transfer matrices and t/r amplitudes
- ``kard``       angle parameterization of a cell matrix; band structure
- ``timing``     transmission and phase-time curves for N-cell arrays
- ``resonance``  band-interior extrema and resonance lineshape fits
- ``scattering`` Smith lifetime matrix, interior states, dwell times
- ``playmodel``  closed-form single-band toy cell
- ``arc``        antireflection end cells and band-averaged transmission
- ``tdse``       time-dependent wave-packet propagation cross-check
"""

from .errors import (
    NearBandEdgeError,
    NoTransmissionError,
    NumericError,
    SltimeError,
    ValidationError,
)
from .medium import (
    CONSTANTS,
    CellSpec,
    EnergyGrid,
    Layer,
    StackSpec,
    load_stack,
    representative_cell,
    representative_stack,
    save_stack,
)
from .tmatrix import Amplitudes, TransferMatrix, amplitudes, cell_matrix, stack_matrix
from .kard import (
    Band,
    KardDerivatives,
    KardParams,
    band_structure,
    decompose,
    energy_at_phase,
    kard_derivatives,
    reconstruct,
)
from .timing import (
    TimingCurve,
    bloch_time,
    envelopes,
    phase_time,
    timing_curve,
    transmission_sweep,
)
from .resonance import (PeakFit, ValleyFit, approx_curves, fit_extrema, fit_peak, fit_valley,
                        locate_extrema)
from .scattering import (
    DwellResult,
    SmithMatrix,
    dwell_time,
    interior_wavefunction,
    smith_matrix,
)
from .playmodel import PLAY_MODEL, PlayModelSpec, play_derivatives, play_kard, play_matrix
from .arc import ArcDesign, band_average_transmission, compose_with_arc, design_rule_of_thumb
from .tdse import (
    DelayResult,
    Grid1D,
    WavePacket,
    evolve,
    packet_delay,
    plan_run,
    spectral_average,
    stationary_packet_delay,
)

__version__ = "0.1.0"

__all__ = [
    "SltimeError",
    "ValidationError",
    "NumericError",
    "NearBandEdgeError",
    "NoTransmissionError",
    "CONSTANTS",
    "Layer",
    "CellSpec",
    "StackSpec",
    "EnergyGrid",
    "load_stack",
    "save_stack",
    "representative_cell",
    "representative_stack",
    "TransferMatrix",
    "Amplitudes",
    "cell_matrix",
    "stack_matrix",
    "amplitudes",
    "KardParams",
    "KardDerivatives",
    "Band",
    "decompose",
    "reconstruct",
    "band_structure",
    "energy_at_phase",
    "kard_derivatives",
    "TimingCurve",
    "bloch_time",
    "phase_time",
    "envelopes",
    "timing_curve",
    "transmission_sweep",
    "PeakFit",
    "ValleyFit",
    "locate_extrema",
    "fit_peak",
    "fit_valley",
    "fit_extrema",
    "approx_curves",
    "DwellResult",
    "SmithMatrix",
    "smith_matrix",
    "interior_wavefunction",
    "dwell_time",
    "PlayModelSpec",
    "PLAY_MODEL",
    "play_kard",
    "play_matrix",
    "play_derivatives",
    "ArcDesign",
    "design_rule_of_thumb",
    "compose_with_arc",
    "band_average_transmission",
    "Grid1D",
    "WavePacket",
    "DelayResult",
    "evolve",
    "packet_delay",
    "plan_run",
    "spectral_average",
    "stationary_packet_delay",
    "__version__",
]
