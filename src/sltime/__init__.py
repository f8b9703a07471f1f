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

``import sltime`` runs none of them.  Each is registered in ``sys.modules``
and on the package at once, and its body runs on its first attribute access
(``importlib.util.LazyLoader``).  A public name resolves on first use through
the module ``__getattr__`` (PEP 562), which loads the layers in order until
one declares it, and is then cached here.
"""

import importlib.util
import sys

__version__ = "0.1.0"

#: the layers, in the order in which ``__all__`` lists their names
_LAYERS = ("errors", "medium", "tmatrix", "kard", "timing", "resonance", "scattering",
           "playmodel", "arc", "tdse")


def _register(name: str):
    """The submodule ``name``, registered without running its body."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update((name, _register(name)) for name in _LAYERS)


def __getattr__(name: str):
    layers = map(globals().get, _LAYERS)
    if name == "__all__":
        value = ["__version__", *(n for module in layers for n in module.__all__)]
    else:
        owner = next((module for module in layers if name in module.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return __getattr__("__all__")
