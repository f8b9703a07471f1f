"""Time-dependent wave-packet transport across a stack.

This is the package's independent referee: no transfer matrices, no phase
derivatives, just the time-dependent Schroedinger equation on a real-space
grid.  A Gaussian packet launched in the left lead crosses the stack; the
time at which the transmitted portion's centroid passes a detector,
compared against an identical packet in free space, gives a packet delay
that the stationary-phase times from ``timing`` must predict.

Numerics:

- Hamiltonian  H = -c2 d/dx (1/m*) d/dx + V  discretized with the mass
  sampled at nodes and 1/m* averaged to half points, which keeps the
  discrete flux (1/m*) psi' continuous across material interfaces.
- Crank-Nicolson stepping.  The scheme is unconditionally stable and
  exactly norm-preserving up to solver roundoff, so norm drift is a pure
  diagnostic of implementation errors, not of the method.  With
  A = 1 + i dt H / (2 hbar), a step A^-1 (2 - A) psi is 2 A^-1 psi - psi:
  LAPACK's zgttrf factors the tridiagonal A once per run, and each step is
  one zgttrs solve.  A's eigenvalues have modulus >= 1, so
  |A^-1 psi| <= |psi| and the subtraction cancels nothing.
- Hard walls, no absorbing boundaries.  The domain must be sized so that
  nothing meaningful reaches a wall during the run; density near the walls
  is monitored and a violation raises instead of quietly contaminating the
  interior.  ``plan_run`` sizes the domain from the packet speed and the
  run length so the monitor never trips for sane inputs.

The delay observable is the crossing time of the *transmitted-portion
centroid* (density restricted to beyond a separator on the far side of the
stack), interpolated linearly between steps.  Centroids are robust against
the shape distortion that narrow resonances inflict on the transmitted
packet, where a peak-arrival reading would be ambiguous.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NoTransmissionError, NumericError, ValidationError
from .medium import CONSTANTS, CellSpec, Layer, StackSpec
from .scattering import _origin_jet

__all__ = [
    "Grid1D",
    "WavePacket",
    "PacketRecord",
    "DelayResult",
    "free_reference",
    "plan_run",
    "evolve",
    "packet_delay",
    "spectral_average",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform space-time lattice for one run."""

    x_min: float
    x_max: float
    dx: float
    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max):
            raise ValidationError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.dx <= 0 or self.dt <= 0:
            raise ValidationError(f"dx and dt must be positive, got {self.dx}, {self.dt}")
        if self.n_steps < 1:
            raise ValidationError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def n_points(self) -> int:
        return int(round((self.x_max - self.x_min) / self.dx)) + 1

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    @property
    def t_final(self) -> float:
        return self.n_steps * self.dt


@dataclass(frozen=True)
class WavePacket:
    """Gaussian packet exp(-(x-x0)^2/(4 sigma_x^2) + i k0 x), unit norm.

    ``E0`` fixes k0 through the lead dispersion; the momentum spectrum
    |psi(k)|^2 is Gaussian with standard deviation 1/(2 sigma_x).
    """

    x0: float
    E0: float
    sigma_x: float = 60.0

    def __post_init__(self) -> None:
        if self.sigma_x <= 0:
            raise ValidationError(f"sigma_x must be positive, got {self.sigma_x}")

    def k0(self, outside: Layer) -> float:
        e_kin = self.E0 - outside.potential
        if e_kin <= 0:
            raise ValidationError(
                f"E0 = {self.E0} meV is not above the lead band bottom"
            )
        return math.sqrt(e_kin * outside.mass_ratio / CONSTANTS.hbar2_over_2m0)


@dataclass(frozen=True)
class PacketRecord:
    """Time series recorded during one evolution.

    ``beyond_prob`` is the probability beyond the separator ``x_sep`` and
    ``centroid`` the mean position of that transmitted portion (nan while
    the portion is empty).  Drift numbers are maxima over the whole run.
    """

    times: np.ndarray
    beyond_prob: np.ndarray
    centroid: np.ndarray
    x_sep: float
    norm_drift: float
    energy_drift: float
    psi_final: np.ndarray
    grid: Grid1D

    @property
    def transmitted_fraction(self) -> float:
        return float(self.beyond_prob[-1])


@dataclass(frozen=True)
class DelayResult:
    """Packet arrival versus the free-space control."""

    arrival_detected: float
    arrival_free: float
    delay: float
    transmitted_fraction: float
    bloch_time_prediction: float

    def __post_init__(self) -> None:
        if not (-1e-9 <= self.transmitted_fraction <= 1.0 + 1e-9):
            raise ValidationError(
                f"transmitted fraction {self.transmitted_fraction} outside [0, 1]"
            )


def free_reference(stack: StackSpec) -> StackSpec:
    """A stack of pure lead material: V = 0 everywhere, lead mass.

    Same total width as the original so run geometry can be shared; the
    packet sees uniform medium.
    """
    lead = stack.outside
    return StackSpec(
        core=CellSpec(layers=(Layer(stack.width, lead.potential, lead.mass_ratio),)),
        replicas=1,
        outside=lead,
    )


def _material_arrays(stack: StackSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    layers = stack.segments()
    edges = stack.interfaces()
    V = np.full(x.shape, stack.outside.potential)
    m = np.full(x.shape, stack.outside.mass_ratio)
    idx = np.searchsorted(edges, x, side="right") - 1
    inside = (idx >= 0) & (idx < len(layers)) & (x < edges[-1]) & (x >= edges[0])
    pot = np.array([layer.potential for layer in layers])
    mass = np.array([layer.mass_ratio for layer in layers])
    V[inside] = pot[idx[inside]]
    m[inside] = mass[idx[inside]]
    return V, m


def _hamiltonian_diagonals(stack: StackSpec, grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of the real symmetric tridiagonal H."""
    x = grid.x
    V, m = _material_arrays(stack, x)
    inv_m = 1.0 / m
    half = 0.5 * (inv_m[:-1] + inv_m[1:])  # 1/m* at half points
    c = CONSTANTS.hbar2_over_2m0 / grid.dx**2
    off = -c * half
    diag = np.empty_like(x)
    diag[0] = c * (half[0] + inv_m[0]) + V[0]
    diag[-1] = c * (half[-1] + inv_m[-1]) + V[-1]
    diag[1:-1] = c * (half[:-1] + half[1:]) + V[1:-1]
    return diag, off


def _apply_h(diag: np.ndarray, off: np.ndarray, psi: np.ndarray) -> np.ndarray:
    out = diag * psi
    out[:-1] += off * psi[1:]
    out[1:] += off * psi[:-1]
    return out


def initial_state(grid: Grid1D, packet: WavePacket, outside: Layer) -> np.ndarray:
    """Normalized Gaussian packet sampled on the grid."""
    x = grid.x
    k0 = packet.k0(outside)
    psi = np.exp(
        -((x - packet.x0) ** 2) / (4.0 * packet.sigma_x**2) + 1j * k0 * x
    )
    norm = math.sqrt(grid.dx * float(np.sum(np.abs(psi) ** 2)))
    if norm == 0.0:
        raise ValidationError("packet has no support on the grid")
    psi /= norm
    return psi


def evolve(
    stack: StackSpec,
    grid: Grid1D,
    packet: WavePacket,
    x_sep: float | None = None,
    psi0: np.ndarray | None = None,
    monitor_walls: bool = True,
) -> PacketRecord:
    """Crank-Nicolson evolution of the packet across the stack.

    Records, after every step, the probability beyond ``x_sep`` (default:
    one grid cell past the stack's right face) and the centroid of that
    portion.  Raises if the norm moves by more than 1e-6 in a single step,
    or if density within five cells of either wall exceeds 1e-10 -- both
    mean the run geometry, not the physics, produced the numbers.

    ``psi0`` overrides the initial state (used by the stationary-state
    self-test); it is normalized on entry.  ``monitor_walls=False`` turns
    the wall check off for closed-box problems whose states legitimately
    live against the walls.
    """
    # scipy is imported here, not at module level, so that the stationary
    # commands never pay for loading it
    from scipy.linalg.lapack import zgttrf, zgttrs

    x = grid.x
    if x_sep is None:
        x_sep = 0.5 * stack.width + grid.dx
    if not (x[0] < x_sep < x[-1]):
        raise ValidationError(f"separator {x_sep} outside the domain")
    if psi0 is None and (
        packet.x0 - 5.0 * packet.sigma_x < x[0] or packet.x0 + 5.0 * packet.sigma_x > x[-1]
    ):
        raise ValidationError("packet launch point too close to a domain wall")

    diag, off = _hamiltonian_diagonals(stack, grid)
    lam = 0.5 * grid.dt / CONSTANTS.hbar
    dl, d, du, du2, ipiv, info = zgttrf(1j * lam * off, 1.0 + 1j * lam * diag, 1j * lam * off)
    if info != 0:
        raise NumericError(f"Crank-Nicolson matrix is singular (zgttrf info {info})")

    if psi0 is None:
        psi = initial_state(grid, packet, stack.outside)
    else:
        psi = np.asarray(psi0, dtype=complex).copy()
        psi /= math.sqrt(grid.dx * float(np.sum(np.abs(psi) ** 2)))

    j = int(np.searchsorted(x, x_sep, side="right"))  # first point beyond x_sep
    x_beyond = x[j:]
    e_start = grid.dx * float(np.real(np.vdot(psi, _apply_h(diag, off, psi))))

    n_rec = grid.n_steps + 1
    times = grid.dt * np.arange(n_rec)
    beyond = np.empty(n_rec)
    centroid = np.empty(n_rec)
    norm_drift = 0.0
    prev_norm = 1.0
    for i in range(n_rec):
        if i:
            stepped, _ = zgttrs(dl, d, du, du2, ipiv, psi)  # A^-1 psi, a new array
            stepped *= 2.0
            stepped -= psi
            psi = stepped
        dens = psi.real**2 + psi.imag**2
        norm = grid.dx * float(dens.sum())
        if abs(norm - prev_norm) > 1e-6:
            raise NumericError(
                f"norm jumped by {abs(norm - prev_norm):.2e} in one step at "
                f"t = {i * grid.dt:.1f} fs"
            )
        norm_drift = max(norm_drift, abs(norm - 1.0))
        prev_norm = norm
        tail = dens[j:]
        p = grid.dx * float(tail.sum())
        beyond[i] = p
        centroid[i] = grid.dx * float(x_beyond @ tail) / p if p > 1e-14 else math.nan
        wall = grid.dx * float(max(dens[:5].sum(), dens[-5:].sum()))
        if monitor_walls and wall > 1e-10:
            raise NumericError(
                f"density {wall:.2e} reached a domain wall at t = {times[i]:.1f} fs; "
                f"enlarge the domain or shorten the run"
            )

    e_end = grid.dx * float(np.real(np.vdot(psi, _apply_h(diag, off, psi))))
    energy_drift = abs(e_end - e_start) / max(abs(e_start), 1e-30)
    return PacketRecord(
        times=times,
        beyond_prob=beyond,
        centroid=centroid,
        x_sep=x_sep,
        norm_drift=norm_drift,
        energy_drift=energy_drift,
        psi_final=psi,
        grid=grid,
    )


def packet_delay(
    series: PacketRecord,
    x_d: float,
    free_reference: PacketRecord,
    bloch_time_prediction: float = math.nan,
) -> DelayResult:
    """Delay of the transmitted centroid against the free-space control.

    Both records must come from runs on the same grid and time step; the
    arrival is where the centroid crosses the detector ``x_d``, linearly
    interpolated between steps.
    """
    if series.transmitted_fraction <= 1e-4:
        raise NoTransmissionError(
            f"transmitted fraction {series.transmitted_fraction:.2e} too small "
            f"to define an arrival"
        )
    if series.times.shape != free_reference.times.shape or not np.allclose(
        series.times, free_reference.times
    ):
        raise ValidationError("stack run and free reference use different time grids")
    if x_d <= series.x_sep:
        raise ValidationError(
            f"detector {x_d} must lie beyond the separator {series.x_sep}"
        )
    arrival = _centroid_crossing(series, x_d)
    arrival_free = _centroid_crossing(free_reference, x_d)
    return DelayResult(
        arrival_detected=arrival,
        arrival_free=arrival_free,
        delay=arrival - arrival_free,
        transmitted_fraction=series.transmitted_fraction,
        bloch_time_prediction=bloch_time_prediction,
    )


def _centroid_crossing(series: PacketRecord, x_d: float) -> float:
    t, c, p = series.times, series.centroid, series.beyond_prob
    floor = max(1e-9, 1e-4 * series.transmitted_fraction)
    ok = np.isfinite(c) & (p > floor)
    up = ok[:-1] & ok[1:] & (c[:-1] <= x_d) & (c[1:] > x_d)
    hits = np.where(up)[0]
    if hits.size == 0:
        raise NumericError(
            f"transmitted centroid never crossed the detector at {x_d} nm; "
            f"extend the run (final centroid {c[ok][-1] if ok.any() else math.nan:.1f} nm)"
        )
    i = int(hits[0])
    frac = (x_d - c[i]) / (c[i + 1] - c[i])
    return float(t[i] + frac * (t[i + 1] - t[i]))


def plan_run(
    stack: StackSpec,
    E0: float,
    sigma_x: float = 60.0,
    dx: float = 0.25,
    dt: float = 1.0,
    extra_time: float = 0.0,
) -> tuple[Grid1D, WavePacket, float, float]:
    """Geometry and duration for a standard left-to-right run.

    Returns (grid, packet, x_sep, x_d).  The packet starts ten widths left
    of the stack, the detector sits six widths past it, and the domain is
    sized so that neither the transmitted packet nor the reflected one can
    reach a wall within the run: the walls sit the run's reach plus ten
    dispersed widths either side of x0, and since the reflected packet
    turns back at the stack's face -w/2, the left one moves right by twice
    -w/2 - x0, in whole cells so the lattice keeps its place against the
    layer interfaces.  ``extra_time`` lengthens the run (fs) for slow,
    resonance-trapped transmission.
    """
    half_w = 0.5 * stack.width
    packet = WavePacket(x0=-(half_w + 10.0 * sigma_x), E0=E0, sigma_x=sigma_x)
    k0 = packet.k0(stack.outside)
    v0 = CONSTANTS.velocity(k0, stack.outside.mass_ratio)
    x_d = half_w + 6.0 * sigma_x
    travel = (x_d - packet.x0 + 6.0 * sigma_x) / v0
    t_final = 1.5 * travel + extra_time
    n_steps = int(math.ceil(t_final / dt))
    reach = v0 * t_final
    # the packet broadens while it travels; pad with the dispersed width so
    # the 1e-10 wall monitor keeps a 10-sigma margin at the end of the run
    alpha = CONSTANTS.hbar2_over_2m0 / stack.outside.mass_ratio
    sigma_final = sigma_x * math.hypot(1.0, alpha * t_final / (CONSTANTS.hbar * sigma_x**2))
    pad = 10.0 * sigma_final
    turn = dx * math.floor(2.0 * (-half_w - packet.x0) / dx)
    grid = Grid1D(
        x_min=packet.x0 - reach - pad + turn,
        x_max=packet.x0 + reach + pad,
        dx=dx,
        dt=dt,
        n_steps=n_steps,
    )
    return grid, packet, half_w + dx, x_d


#: ``stationary_packet_delay``'s centroid sampling step (fs) and plane-wave count.
_SAMPLE_DT, _N_K = 20.0, 800


def stationary_packet_delay(
    stack: StackSpec,
    packet: WavePacket,
    x_sep: float,
    x_d: float,
    t_max: float,
) -> float:
    """Centroid-crossing delay predicted by the stationary amplitudes.

    Builds the transmitted packet as a superposition of plane waves weighted
    by the packet spectrum and the origin-referenced t(E), tracks the same
    transmitted-centroid observable ``packet_delay`` uses, and subtracts the
    free-space (t = 1) crossing.  This is the fair stationary-theory
    prediction for a TDSE run: at a narrow resonance the transmitted packet
    is strongly stretched, and the centroid crossing legitimately sits below
    the naive spectrum-averaged phase-time delay because density that is
    still trapped when the centroid passes the detector cannot contribute.
    """
    k0 = packet.k0(stack.outside)
    sigma_k = 0.5 / packet.sigma_x
    k = np.linspace(k0 - 6.5 * sigma_k, k0 + 6.5 * sigma_k, _N_K)
    if k[0] <= 0:
        raise ValidationError("packet spectrum reaches k <= 0; use a narrower packet")
    spec = np.exp(-(packet.sigma_x**2) * (k - k0) ** 2 - 1j * (k - k0) * packet.x0)
    alpha = CONSTANTS.hbar2_over_2m0 / stack.outside.mass_ratio
    E = alpha * k**2 + stack.outside.potential
    omega = E / CONSTANTS.hbar
    _, t_amp, *_ = _origin_jet(stack, E)

    v0 = CONSTANTS.velocity(k0, stack.outside.mass_ratio)
    x = np.arange(x_sep, packet.x0 + v0 * t_max + 10.0 * packet.sigma_x, 1.0)
    phase_x = np.exp(1j * np.outer(k, x))  # (n_k, n_x)
    times = np.arange(0.0, t_max, _SAMPLE_DT)
    phase_t = -1j * omega

    def crossing(weights: np.ndarray) -> float:
        # the samples in blocks of 32, one (32, n_k) @ (n_k, n_x) product a
        # block, up to the block in which the centroid crosses x_d
        prev_c, prev_t = None, None
        for start in range(0, len(times), 32):
            block = times[start:start + 32]
            dens = np.abs((weights * np.exp(phase_t * block[:, None])) @ phase_x) ** 2
            p = dens.sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                centroid = np.where(p > 1e-30, (x * dens).sum(axis=1) / p, math.nan)
            for t, c in zip(block, centroid):
                if prev_c is not None and math.isfinite(prev_c) and math.isfinite(c):
                    if prev_c <= x_d < c:
                        frac = (x_d - prev_c) / (c - prev_c)
                        return prev_t + frac * (t - prev_t)
                prev_c, prev_t = c, t
        raise NumericError(
            f"stationary-theory centroid never crossed {x_d} nm within {t_max} fs"
        )

    return crossing(spec * t_amp) - crossing(spec)


def spectral_average(
    energies: np.ndarray,
    values: np.ndarray,
    packet: WavePacket,
    outside: Layer,
) -> float:
    """Packet-spectrum-weighted mean of a curve sampled on ``energies``.

    The weight is the packet's energy spectrum, the momentum Gaussian
    |psi(k)|^2 ~ exp(-2 sigma_x^2 (k - k0)^2) mapped through the lead
    dispersion (Jacobian dk/dE included).  Warns if more than 1% of the
    spectral weight falls outside the sampled energy range, because the
    average then silently ignores that tail.
    """
    energies = np.asarray(energies, dtype=float)
    values = np.asarray(values, dtype=float)
    if energies.ndim != 1 or energies.shape != values.shape or energies.size < 2:
        raise ValidationError("need matching 1-d energy/value arrays, >= 2 samples")
    if not np.all(np.diff(energies) > 0):
        raise ValidationError("energies must be strictly increasing")
    k0 = packet.k0(outside)
    e_kin = energies - outside.potential
    if np.any(e_kin <= 0):
        raise ValidationError("curve extends below the lead band bottom")
    k = np.sqrt(e_kin * outside.mass_ratio / CONSTANTS.hbar2_over_2m0)
    dk_dE = 0.5 * k / e_kin
    w = np.exp(-2.0 * packet.sigma_x**2 * (k - k0) ** 2) * dk_dE

    s = math.sqrt(2.0) * packet.sigma_x
    inside = 0.5 * (math.erf(s * (k[-1] - k0)) - math.erf(s * (k[0] - k0)))
    if inside < 0.99:
        warnings.warn(
            f"only {100 * inside:.1f}% of the packet spectrum lies inside the "
            f"sampled range [{energies[0]:.3f}, {energies[-1]:.3f}] meV",
            stacklevel=2,
        )
    total = np.trapezoid(w, energies)
    if total <= 0.0:
        raise NumericError("packet spectrum has no weight on the sampled range")
    return float(np.trapezoid(w * values, energies) / total)
