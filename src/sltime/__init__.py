"""Transmission, band structure, and traversal times of finite superlattices.

The package is organized around the single-cell transfer matrix and its
angle parameterization.  Every name in the ``__all__`` of ``errors`` or of a
module below can be imported from ``sltime`` itself:

- ``medium``     units, layers, cells, stacks, energy grids, stack files
- ``tmatrix``    plane-wave transfer matrices and t/r amplitudes
- ``kard``       angle parameterization of a cell matrix; band structure
- ``timing``     transmission and phase-time curves for N-cell arrays
- ``resonance``  band-interior extrema and resonance lineshape fits
- ``scattering`` Smith lifetime matrix, dwell times
- ``playmodel``  closed-form single-band toy cell
- ``arc``        antireflection end cells and band-averaged transmission
- ``tdse``       time-dependent wave-packet propagation cross-check
"""

from . import errors, medium, tmatrix, kard, timing, resonance, scattering, playmodel, arc, tdse
from .errors import *
from .medium import *
from .tmatrix import *
from .kard import *
from .timing import *
from .resonance import *
from .scattering import *
from .playmodel import *
from .arc import *
from .tdse import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += medium.__all__
__all__ += tmatrix.__all__
__all__ += kard.__all__
__all__ += timing.__all__
__all__ += resonance.__all__
__all__ += scattering.__all__
__all__ += playmodel.__all__
__all__ += arc.__all__
__all__ += tdse.__all__
