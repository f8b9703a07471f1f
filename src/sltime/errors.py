"""Exception hierarchy shared across the package.

Validation errors cover malformed inputs (bad layer widths, contradictory
symmetry flags, broken stack files).  Numeric errors cover runtime failures
of the numerical machinery (cell angles asked for outside an allowed band,
a closed form that disagrees with its cross-check, unstable time
stepping).  The CLI maps the two families to distinct exit codes.
"""


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
