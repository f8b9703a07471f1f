"""Exception hierarchy shared across the package, and its one failure path.

Validation errors cover malformed inputs (bad layer widths, contradictory
symmetry flags, broken stack files).  Numeric errors cover runtime failures
of the numerical machinery (cell angles asked for outside an allowed band,
a closed form that disagrees with its cross-check, unstable time
stepping).  The CLI maps the two families to distinct exit codes:
``ValidationError`` exits 3, ``NumericError`` and its subclasses exit 4.

Every check on a real number in the package states its passing condition,
so a NaN, for which every comparison is False, fails it, and an inf fails
wherever a finite value is required (``0 < dx < inf``).  A check over an
array -- energies, or the per-step series of a wave-packet run -- is one
``require`` call, whose message names the first failing element only; a
scalar validation is ``if not (...): raise``.
"""

import numpy as np

__all__ = ["SltimeError", "ValidationError", "NumericError", "NearBandEdgeError",
           "NoTransmissionError"]


class SltimeError(Exception):
    """Base class for all package errors."""


class ValidationError(SltimeError):
    """An input object violates one of its declared invariants."""


class NumericError(SltimeError):
    """A numerical procedure failed or was used outside its safe domain."""


class NearBandEdgeError(NumericError):
    """An energy at or beyond the edges of its allowed band, where the cell
    angles (phi, mu) and their energy derivatives do not exist."""


class NoTransmissionError(NumericError):
    """No transmitted wave to work with: the transmitted weight of a wave
    packet is too small to define an arrival time, or an energy handed to
    the transfer-matrix kernel lies at or below the lead band bottom, where
    no lead channel propagates."""


def require(ok, error: type[SltimeError], message: str, **values) -> None:
    """Raise ``error`` at the first element where ``ok`` is False.

    ``ok`` is a bool or a boolean array.  ``message`` is formatted with
    ``values`` taken at that element: an array is indexed (flat, like
    ``ok``), a scalar is used as it is.
    """
    if ok is True or np.asarray(ok).all():
        return
    i = np.flatnonzero(np.logical_not(ok))[0]
    raise error(message.format(**{k: np.ravel(v)[i] if np.ndim(v) else v
                                  for k, v in values.items()}))
