"""Time-dependent wave-packet transport across a stack.

This is the package's independent referee: no transfer matrices, no phase
derivatives, just the time-dependent Schroedinger equation on a real-space
grid.  A Gaussian packet launched in the left lead crosses the stack; the
time at which the transmitted portion's centroid passes a detector,
compared against an identical packet in free space, gives a packet delay
that the stationary-phase times from ``timing`` must predict; ``measure_delay``
makes both runs and reads it.

Numerics:

- Hamiltonian  H = -c2 d/dx (1/m*) d/dx + V  discretized with the mass
  sampled at nodes and 1/m* averaged to half points, which keeps the
  discrete flux (1/m*) psi' continuous across material interfaces.
- Crank-Nicolson stepping.  The scheme is unconditionally stable and, in
  a closed box, exactly norm-preserving up to solver roundoff, so norm
  drift (of norm plus outflow, with the open ends below) is a pure
  diagnostic of implementation errors, not of the method.  With
  A = 1 + i dt H / (2 hbar), a step A^-1 (2 - A) psi is chi - psi, where
  (A/2) chi = psi.  A's eigenvalues have modulus >= 1, so |chi| <= 2 |psi|
  and the subtraction cancels nothing.
- The tridiagonal solve is odd-even (cyclic) reduction (Hockney, J. ACM 12
  (1965) 95; Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7 (1970) 627):
  each level eliminates every other unknown, halving the system down to a
  block of at most 32 that a precomputed inverse solves, and the odd
  unknowns follow back level by level.  A/2 is fixed for the run, so
  ``_CyclicReduction`` makes every level's coefficients and buffers once.
  psi lives in level 0's vector, which the forward pass only reads, and
  level 0's back-substitution forms chi - psi there, so a step copies no
  state and allocates nothing: 10 numpy calls a level, one more at level 0
  and 2 for the bottom block (83 at 7.0k-7.1k points), each given its output
  positionally, and about five complex multiplications and five additions
  or subtractions per point in all.  It needs no pivoting: H is real symmetric, so A's Hermitian
  part is the identity.  Each level's matrix is a Schur complement S of A,
  and Re z*Sz = Re w*Aw >= |w|^2 >= |z|^2 for the w that extends z by the
  eliminated unknowns, so S's Hermitian part stays >= 1 too, every pivot of
  A has real part >= 1, and every pivot of A/2 >= 1/2.
- A uniform medium (any stack of lead material, as ``free_reference``) is
  solved exactly.  H = tridiag(o, d, o) has the eigenvectors sin(pi i m/(n+1))
  and a step multiplies mode m by (1 - i u_m)/(1 + i u_m), u_m = dt eps_m/2hbar,
  eps_m = d + 2o cos(pi m/(n+1)) (Numerical Recipes 3rd ed., 12.4, 20.2).  Real
  FFTs (a DST-I) give psi's modes above 1e-13 of the largest; a record's sum
  of w_i |psi_i|^2 is a^H (T - K) a / 2, T and K the Toeplitz and Hankel
  matrices of C(p) = sum w_i cos(pi i p/(n+1)), so each is a weighted sum over
  one FFT of the modes.  A state that fills over 1/10 of the modes is stepped.
- Both ends open.  The reflected packet leaves on the left and the
  transmitted one on the right through discrete transparent boundaries,
  exact for Crank-Nicolson on a uniform lattice (A. Arnold, VLSI Design 6
  (1998) 313; M. Ehrhardt & A. Arnold, Riv. Mat. Univ. Parma (6) 4 (2001)
  57).  With chi = psi^n+1 + psi^n, the stepper's chi, the ghost site left
  of the grid is chi_-1^n = sum_k=0..n s_k chi_0^n-k, where
  nu(z) = sum_k s_k z^-k is the root with |nu| < 1 of nu + 1/nu =
  (kappa - d)/o, kappa = (1 - z)/(i lam (1 + z)), lam = dt/2hbar, and d
  and o H's first row, diag[0] and off[0], which are the lead's: the
  Z-transform in time of the lead's decaying solution.  Both leads are the
  stack's ``outside``, so the ghost site right of the grid is the same sum
  over the last site's chi.  So rows 0 and n-1 of A/2 gain i lam o s_0/2
  once, and each step moves psi_0 by
  delta = -i lam o sum_k>=1 s_k chi_0^n-k / 2, and psi_n-1 by its own
  history, before the solve and again after it.  s_0 = nu(infinity), where
  (kappa - d)/o = (i/lam - d)/o has a negative imaginary part (o < 0), so
  Im s_0 > 0: the term only adds -lam o Im s_0 > 0 to the Hermitian part of
  A, and the reduction still needs no pivoting.  Both ends' sums over the
  history are one einsum a step, of the reversed kernel with the (2, k) end
  values so far.  With H the grid's matrix without the ghosts, a step gives
  exactly |psi^n+1|^2 - |psi^n|^2 = lam o Im(conj(chi_0) chi_-1) and
  E^n+1 - E^n = lam o Im(conj((H chi)_0) chi_-1) (times dx) at the left
  end, and the mirror image at the right, so the probability and energy
  that have left are summed, and the norm and energy checks read norm plus
  outflow and energy plus outflow.  The grid's first two and last two
  sites must lie in the leads; ``plan_run`` ends the grid eleven widths
  left of the launch point, where nothing is at the start, and ten widths
  right of the detector, where nearly nothing is by the time the centroid
  crosses it.  ``beyond_prob`` counts what left on the right, so it is the
  infinite lattice's; the centroid, of the part on the grid, is reported
  only while that outflow is small (``PacketRecord``).
- ``monitor_walls=False`` runs and sine-mode runs are closed boxes, hard
  walls at both ends; the stepper's closed box is the open ends with o = 0
  and a zero kernel.  A monitored sine-mode run's box reaches right to where
  the free packet could get in the run (``_reach``), and on to a size its
  FFTs take fast (``_smooth_size``); the probability past the grid counts
  as right outflow, and the density near both of its walls is monitored: a
  violation raises instead of quietly contaminating the interior.

The delay observable is the crossing time of the *transmitted-portion
centroid* (density restricted to beyond a separator on the far side of the
stack), interpolated linearly between steps.  Centroids are robust against
the shape distortion that narrow resonances inflict on the transmitted
packet, where a peak-arrival reading would be ambiguous.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NoTransmissionError, NumericError, ValidationError, require
from .medium import CONSTANTS, CellSpec, Layer, StackSpec
from .scattering import _origin_jet

__all__ = [
    "Grid1D",
    "WavePacket",
    "PacketRecord",
    "DelayResult",
    "measure_delay",
    "plan_run",
    "evolve",
    "packet_delay",
    "stationary_packet_delay",
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
        if not (0 < self.dx < math.inf and 0 < self.dt < math.inf):
            raise ValidationError(f"need 0 < dx, dt < inf, got {self.dx}, {self.dt}")
        if isinstance(self.n_steps, bool) or not isinstance(self.n_steps, numbers.Integral):
            raise ValidationError(f"n_steps must be an integer, got {self.n_steps!r}")
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
    sigma_x: float

    def __post_init__(self) -> None:
        if not (0 < self.sigma_x < math.inf):
            raise ValidationError(f"sigma_x must be positive and finite, got {self.sigma_x}")

    def k0(self, outside: Layer) -> float:
        e_kin = self.E0 - outside.potential
        if not (0 < e_kin < math.inf):
            raise ValidationError(
                f"E0 = {self.E0} meV is not a finite energy above the lead band bottom"
            )
        return math.sqrt(e_kin * outside.mass_ratio / CONSTANTS.hbar2_over_2m0)


@dataclass(frozen=True)
class PacketRecord:
    """Time series recorded during one evolution.

    ``beyond_prob`` is the probability beyond the separator ``x_sep``: on
    the grid, plus what has left on the right so far, the infinite
    lattice's value.  ``centroid`` is the mean position of the transmitted
    portion on the grid, reported (nan elsewhere) where the arrival rule
    (``packet_delay``) reads it, at samples whose ``beyond_prob`` exceeds
    1e-4 of the last, and only while the right outflow, which it leaves
    out, is below ``_RIGHT_FLOOR`` (1e-12).  Both producers keep this rule;
    a sine-mode run, which drops modes under 1e-13 of the largest, could
    not resolve the centroid of a tail below about 1e-7.  ``left_outflow``
    and ``right_outflow`` are the probabilities that have left through the
    open ends by the end of the run (0 in a closed box; what lies past the
    grid in a sine-mode box).  ``norm_drift`` is the largest departure of
    norm plus outflow from 1 over the run, and ``energy_drift`` that of the
    final energy plus the energy that left from the initial energy,
    relative to the latter, all measured from the lead's band bottom.
    """

    times: np.ndarray
    beyond_prob: np.ndarray
    centroid: np.ndarray
    x_sep: float
    norm_drift: float
    energy_drift: float
    left_outflow: float
    right_outflow: float
    psi_final: np.ndarray

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
    """A stack of pure lead material: the lead's potential and mass everywhere.

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


def _energy(diag: np.ndarray, off: np.ndarray, psi: np.ndarray) -> float:
    """psi^H H psi = sum (d_i + o_i-1 + o_i) |psi_i|^2 - sum o_i |psi_i+1 - psi_i|^2, in numpy's
    pairwise sums, not a BLAS dot, which OpenBLAS threads above 10000 elements.  ``evolve``
    passes d less the lead's band bottom d_0 + 2 o_0, so a uniform medium's inner sites add 0."""
    site, jump = diag + np.r_[off, 0.0] + np.r_[0.0, off], np.diff(psi)
    return float(np.sum(site * (psi.real**2 + psi.imag**2))
                 - np.sum(off * (jump.real**2 + jump.imag**2)))


#: the size at which odd-even reduction stops and a dense inverse takes over
_DENSE = 32


class _CyclicReduction:
    """Odd-even reduction for one fixed tridiagonal matrix, stepping the state
    ``psi`` to chi - psi in place, where the matrix times chi is psi.

    Row i reads a_i x_i-1 + b_i x_i + c_i x_i+1 = d_i.  Row 2k plus alpha
    times row 2k-1 and gamma times row 2k+1 no longer holds x_2k+/-1, so the
    even unknowns solve a tridiagonal system of half the size, until at most
    ``_DENSE`` are left for a precomputed inverse; then each odd unknown is
    x_2k+1 = d_2k+1 / b_2k+1 + p x_2k + q x_2k+2.  Each level's vector sits
    between two pad zeros, so the neighbours of the even rows are plain
    strided views with no end cases.  ``psi`` is level 0's vector, which its
    forward pass only reads, so its back-substitution forms chi - psi where
    psi lies.  ``step`` does no pivoting: the pivots b_2k+1 must stay away
    from zero, as they do for ``evolve``'s A/2.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> None:
        n = diag.size
        a, b, c = (np.zeros(n + 2, complex) for _ in range(3))
        a[2:n + 1], b[1:n + 1], c[1:n] = lower, diag, upper
        buf = np.zeros(n + 2, complex)
        self.psi = buf[1:n + 1]
        self._down, up = [], []  # each level's operands, in the order ``step`` unpacks them
        while n > _DENSE:
            ne, no = (n + 1) // 2, n // 2
            E, L, R = slice(1, 2 * ne, 2), slice(0, 2 * ne - 1, 2), slice(2, 2 * ne + 1, 2)
            O = slice(2, 2 * no + 1, 2)
            inv = np.zeros(n + 2, complex)  # 1/b at the odd rows, 0 at the pads
            inv[O] = 1.0 / b[O]
            alpha, gamma, inv_odd = -a[E] * inv[L], -c[E] * inv[R], inv[O].copy()
            nxt, tmp = np.zeros(ne + 2, complex), np.empty(ne, complex)
            even, low = buf[E], nxt[1:ne + 1]  # d_2k; the next level's vector
            # down: d_2k-1, d_2k+1 (pad zeros at the ends), alpha = -a_2k/b_2k-1 and
            # gamma = -c_2k/b_2k+1; up: x_2k+1 = d_2k+1/b_2k+1 + p x_2k + q x_2k+2
            self._down.append((buf[L], alpha, tmp, even, low, buf[R], gamma))
            up.append((buf[O], inv_odd, nxt[1:no + 1], -a[O] * inv_odd, tmp[:no], nxt[2:no + 2],
                       -c[O] * inv_odd, even, low))
            a_n, b_n, c_n = (np.zeros(ne + 2, complex) for _ in range(3))
            a_n[1:ne + 1] = alpha * a[L]
            b_n[1:ne + 1] = b[E] + alpha * c[L] + gamma * a[R]
            c_n[1:ne + 1] = gamma * c[R]
            a, b, c, buf, n = a_n, b_n, c_n, nxt, ne
        self._bottom = buf[1:n + 1]
        self._bottom_inverse = np.linalg.inv(
            np.diag(b[1:n + 1]) + np.diag(a[2:n + 1], -1) + np.diag(c[1:n], 1))
        self._bottom_tmp = np.empty(n, complex)
        self._up, self._top = up[:0:-1], up[0] if up else None  # levels 1 and on, level 0
        self._chi_odd = np.empty_like(up[0][0]) if up else None

    def step(self) -> None:
        """``psi`` <- chi - psi; level 0 writes chi's odd unknowns to a scratch
        array and subtracts, and takes its even ones from level 1's vector."""
        mul, add, sub = np.multiply, np.add, np.subtract
        for left, alpha, tmp, even, down, right, gamma in self._down:
            mul(left, alpha, tmp)
            add(even, tmp, down)
            mul(right, gamma, tmp)
            add(down, tmp, down)
        np.matmul(self._bottom_inverse, self._bottom, self._bottom_tmp)
        if self._top is None:  # psi is the bottom vector
            sub(self._bottom_tmp, self.psi, self.psi)
            return
        np.copyto(self._bottom, self._bottom_tmp)
        for odd, inv_pivot, below, p, tmp, above, q, even, down in self._up:
            mul(odd, inv_pivot, odd)
            mul(below, p, tmp)
            add(odd, tmp, odd)
            mul(above, q, tmp)
            add(odd, tmp, odd)
            np.copyto(even, down)
        odd, inv_pivot, below, p, tmp, above, q, even, down = self._top
        chi = self._chi_odd
        mul(odd, inv_pivot, chi)
        mul(below, p, tmp)
        add(chi, tmp, chi)
        mul(above, q, tmp)
        add(chi, tmp, chi)
        sub(chi, odd, odd)
        sub(down, even, even)


def initial_state(grid: Grid1D, packet: WavePacket, outside: Layer) -> np.ndarray:
    """Normalized Gaussian packet sampled on the grid."""
    x = grid.x
    k0 = packet.k0(outside)
    psi = np.exp(
        -((x - packet.x0) ** 2) / (4.0 * packet.sigma_x**2) + 1j * k0 * x
    )
    norm = math.sqrt(grid.dx * float(np.sum(np.abs(psi) ** 2)))
    if not (norm > 0.0):
        raise ValidationError("packet has no support on the grid")
    psi /= norm
    return psi


def _circle(radius: float, size: int) -> np.ndarray:
    """``size`` points radius e^(2 pi i m/size), m = 0 .. size - 1, in one array."""
    z = np.arange(size, dtype=complex)
    z *= 2j * math.pi / size
    np.exp(z, out=z)
    z *= radius
    return z


def _lead_nu(z: np.ndarray, d: float, o: float, lam: float) -> np.ndarray:
    """nu(z), the root with |nu| < 1 of nu + 1/nu = (kappa - d)/o, where
    kappa = (1 - z)/(i lam (1 + z)): the lead's decaying Z-transformed solution.
    Overwrites ``z`` with nu(z) and allocates one more array of its size."""
    root = 1.0 + z
    root *= 1j * lam
    np.subtract(1.0, z, out=z)
    z /= root
    z -= d
    z *= 0.5 / o  # w = (kappa - d)/2o
    np.multiply(z, z, out=root)
    root -= 1.0
    np.sqrt(root, out=root)
    flip = z.real * root.real
    flip += z.imag * root.imag  # Re(conj(w) root): the larger root is w + root where >= 0
    np.negative(root, out=root, where=flip < 0.0)
    z += root
    return np.divide(1.0, z, out=z)  # 1 / the larger root


def _ghost_kernel(d: float, o: float, lam: float, n_steps: int) -> np.ndarray:
    """s_0 .. s_n_steps, the coefficients of nu(z) = sum_k s_k z^-k (module notes).

    One inverse FFT of nu on |z| = rho, with rho^-M = 1e-10, gives s_k rho^-k
    for k < M, M a power of two >= 4 (n_steps + 1) and >= 1024, so aliasing
    adds 1e-10 of a far smaller s_k+M and rounding grows by at most rho^(M/4).
    Raises NumericError unless s_0 .. s_M/4-1 give nu back on |z| = 1.3 to
    1e-12; those 256 or more terms leave a truncation below 1.3^-256.  nu is
    evaluated in place, so a call holds about three arrays of M complex at once."""
    from numpy import fft

    size = max(1024, 1 << (4 * n_steps + 3).bit_length())
    rho, k = 1e10 ** (1.0 / size), np.arange(size // 4)
    s = fft.ifft(_lead_nu(_circle(rho, size), d, o, lam))[:k.size] * rho**k
    gap = np.abs(fft.fft(s * 1.3**-k) - _lead_nu(_circle(1.3, k.size), d, o, lam)).max()
    require(gap <= 1e-12, NumericError,
            "the open boundary's kernel misses nu(z) on |z| = 1.3 by {gap:.2e}", gap=gap)
    return s[:n_steps + 1]


def _stepped_sums(diag, off, lam, psi, x, j, n_rec, lead=None):
    """Steps ``psi`` in place.  Returns, per record, |psi|^2 summed everywhere and
    beyond index ``j``, its first moment there and the probability that has left
    through the open left and right ends; the final psi; its energy plus the
    energy that left; and None, as no wall is watched.  ``lead`` = (o, s), the
    lead's off-diagonal and ``_ghost_kernel``, opens both ends (module notes);
    without it o = 0 and s = 0, the closed box.  Step k's histories
    sum_m<k s_k-m chi of step m, at the first and the last site, are one einsum
    of the reversed kernel with the (2, k) end values so far, not BLAS, as the
    first moment is: OpenBLAS runs a zdotu of over 10000 elements on two
    threads, whose spinning cost an 11788-step run a quarter more CPU time."""
    o, s = lead or (0.0, np.zeros(n_rec))
    shifted = diag - (diag[0] + 2.0 * off[0])  # energies from the lead's band bottom (``evolve``)
    a_diag = 0.5 + 0.5j * lam * diag
    a_diag[[0, -1]] += 0.5j * lam * o * s[0]
    half_a = _CyclicReduction(0.5j * lam * off, a_diag, 0.5j * lam * off)
    state = half_a.psi
    np.copyto(state, psi)
    n, c, back, last = n_rec - 1, 0.5j * lam * o, s[:0:-1], psi.size - 1  # back[n-k:]: s_k .. s_1
    chi, rests = np.zeros((2, n), complex), np.zeros((2, n), complex)  # at sites 0 and last
    edge = np.empty((2, n_rec), complex)  # psi at the sites next to them, per record
    edge[:, 0] = psi[1], psi[last - 1]
    re, im, dens, im2 = state.real, state.imag, np.empty(psi.size), np.empty(psi.size)
    x_tail, tail = x[j:], dens[j:]
    square, add, total, einsum = np.square, np.add, np.add.reduce, np.einsum
    sums = np.zeros((5, n_rec))
    for i in range(n_rec):
        if i:  # step k: each end moves by -c rest before the solve and again after it
            k = i - 1
            einsum("i,ji->j", back[n - k:], chi[:, :k], out=rests[:, k])
            left, right = c * rests.item(k), c * rests.item(n + k)  # a closed box's are +0
            p0, p1 = state.item(0), state.item(last)
            state[0], state[last] = p0 - left, p1 - right
            half_a.step()
            q0, q1 = state.item(0) - left, state.item(last) - right
            state[0], state[last] = q0, q1
            chi[0, k], chi[1, k] = q0 + p0, q1 + p1
            edge[0, i], edge[1, i] = state.item(1), state.item(last - 1)
        square(re, dens)
        square(im, im2)
        add(dens, im2, dens)
        moment = einsum("i,i->", x_tail, tail)  # not BLAS, which threads long dots
        sums[:3, i] = total(dens), total(tail), moment
    # the balances of the module notes, step by step, summed from +0 so a closed box reads +0
    ghost = (s[0] * chi + rests).conj()
    sums[3:, 1:] = (chi * ghost).imag
    np.cumsum(sums[3:], axis=1, out=sums[3:])
    sums[3:] *= lam * o
    h_chi = shifted[[0, -1], None] * chi + off[[0, -1], None] * (edge[:, 1:] + edge[:, :-1])
    energy = _energy(shifted, off, state) + lam * o * np.sum((h_chi * ghost).imag)
    np.copyto(psi, state)
    return sums, psi, energy, None


#: a centroid is reported only while the right outflow is below this (``PacketRecord``)
_RIGHT_FLOOR = 1e-12

#: modes under _MODE_FLOOR of the largest are dropped; over n/_MODE_COST kept, steps are cheaper
_MODE_FLOOR, _MODE_COST = 1e-13, 10


def _smooth_size(n: int) -> int:
    """The least m >= n for which m + 1 has no prime factor above 5.  The sine
    modes' real FFTs have length 2m + 2, and numpy's FFT takes a length with a
    large prime factor (a 10150-site box has m + 1 = 10151, a prime) through
    Bluestein's algorithm, at twice the time and a few MB more memory."""
    m = n - 1
    while True:
        m += 1
        k = m + 1
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m


def _uniform_sums(d, o, lam, psi, x, j, n_rec, m):
    """``_stepped_sums`` of a uniform medium, H = tridiag(o, d, o), in its sine
    modes (module notes) on a closed box of m >= psi.size sites: the grid's,
    then m - psi.size more of its lattice right of it, where psi starts at 0.
    Nothing leaves through the left wall, and the probability on the sites
    past the grid counts as right outflow.  The energy, from the band bottom
    d + 2o, is the kept modes' (m + 1)/2 sum |a_k|^2 (eps_k - d - 2o), with
    eps_k - d - 2o = -4o sin^2(pi k/2(m+1)).  Its fourth item is the density
    within five cells of the box's two walls, per record; None where the
    modes would cost more than the steps."""
    from numpy import fft

    n = psi.size
    odd = lambda v: fft.rfft(np.concatenate(([0.0], v, [0.0], -v[::-1]))).imag[1:m + 1]
    dst = lambda v: -0.5 * (odd(v.real) + 1j * odd(v.imag))  # sum_i v_i sin(pi i m/(n+1))
    coef = dst(np.concatenate((psi, np.zeros(m - n))))
    kept = np.flatnonzero(~(np.abs(coef) <= _MODE_FLOOR * np.abs(coef).max()))  # NaN: all, so steps
    lo, size = int(kept[0]), int(kept[-1]) + 1 - int(kept[0])
    if size * _MODE_COST > m:
        return None
    a, k = coef[lo:lo + size] * (2.0 / (m + 1)), np.arange(lo + 1, lo + size + 1)
    phase = 2.0 * np.arctan(lam * (d + 2.0 * o * np.cos(math.pi / (m + 1) * k)))
    # the FFT length: the least 2^k, 3 2^k or 5 2^k that holds T's and K's 2M - 1
    span = min(f << (-(-(2 * size - 1) // f) - 1).bit_length() for f in (1, 3, 5))
    r = np.arange(span)
    p = np.concatenate((np.minimum(r, span - r), 2 * lo + 2 + r)) % (2 * m + 2)  # T, K
    w = np.zeros((3, 2 * m + 2))  # the weights 1 and x on the tail, i = j+1 .. n, and 1 past it
    w[0, j + 1:n + 1], w[1, j + 1:n + 1], w[2, n + 1:m + 1] = 1.0, x[j:], 1.0
    walls = np.cos(math.pi / (m + 1) * np.multiply.outer(np.r_[1:6, m - 4:m + 1], p)).sum(axis=0)
    c = np.vstack((fft.rfft(w)[:, np.minimum(p, 2 * m + 2 - p)].real, walls))  # C(2m+2-p) = C(p)
    hats = fft.fft(c.reshape(4, 2, span))
    t_hat, k_hat = hats[:, 0].real * (0.5 / span), np.ascontiguousarray(hats[:, 1] * (-0.5 / span))
    block = max(1, 8192 // span)  # records a pass: arrays of at most 8192 complex
    advance = np.exp(-1j * np.outer(np.arange(block), phase))
    sums = np.empty((5, n_rec))
    power = a.real**2 + a.imag**2
    sums[0] = 0.5 * (m + 1) * np.sum(power)
    for i in range(0, n_rec, block):
        f = fft.fft(advance[:n_rec - i] * (a * np.exp(-1j * i * phase)), span)
        pair = f * np.roll(f[:, ::-1], 1, axis=1).conj()  # f(q) f(-q)*
        sums[1:, i:i + len(f)] = (np.einsum("kq,wq->wk", f.real**2 + f.imag**2, t_hat)
                                  + np.einsum("kq,wq->wk", pair.view(float), k_hat.view(float)))
    coef[:] = 0.0
    coef[lo:lo + size] = a * np.exp(-1j * (n_rec - 1) * phase)
    box = dst(coef)
    eps = -4.0 * o * np.sin(0.5 * math.pi / (m + 1) * k) ** 2  # less the band bottom d + 2o
    past = sums[3]
    return (np.vstack((sums[0] - past, sums[1:3], np.zeros(n_rec), past)), box[:n],
            0.5 * (m + 1) * float(np.sum(power * eps)), sums[4])


def evolve(
    stack: StackSpec,
    grid: Grid1D,
    packet: WavePacket,
    x_sep: float,
    psi0: np.ndarray | None = None,
    monitor_walls: bool = True,
) -> PacketRecord:
    """Crank-Nicolson evolution of the packet across the stack.

    The steps, or a uniform medium's sine modes, give each record's norm,
    probability beyond ``x_sep`` (``plan_run`` places it), its first moment
    and the probability that has left through either end.  A monitored
    stepped run (``monitor_walls``, the default) has both ends open, the
    discrete transparent boundaries of the module notes, and records the
    probability and energy that leave through them; its grid's first two
    sites must lie in the left lead, left of -w/2, and its last two in the
    right lead, right of w/2 (else ValidationError before any step), so that
    H's first and last rows are the lead's d and o.  A monitored sine-mode
    run keeps a closed box that reaches right to ``_reach`` of the run, or
    to the grid's end if that lies further (module notes), and watches the
    density within five cells of its walls.  Then each check runs once over
    its series, naming the first failing step: a jump of norm plus outflow
    above 1e-6 in one step (a NaN state fails at t = 0), then wall density
    above 1e-10 -- either means the run geometry, not the physics, produced
    the numbers.  So a failing run raises only after its last step.
    ``norm_drift`` and ``energy_drift`` are drifts of the totals, inside
    plus outflow, energies from the lead's band bottom (``_energy``).

    ``psi0`` overrides the initial state (used by the stationary-state
    self-test); it is normalized on entry.  ``monitor_walls=False`` keeps
    the closed box of the grid with two hard walls and turns the wall check
    off, for closed-box problems whose states legitimately live against the
    walls.
    """
    x = grid.x
    if not (x[0] < x_sep < x[-1]):
        raise ValidationError(f"separator {x_sep} outside the domain")
    if psi0 is None and not (
        x[0] <= packet.x0 - 5.0 * packet.sigma_x and packet.x0 + 5.0 * packet.sigma_x <= x[-1]
    ):
        raise ValidationError("packet launch point too close to a domain wall")

    diag, off = _hamiltonian_diagonals(stack, grid)
    lam = 0.5 * grid.dt / CONSTANTS.hbar

    if psi0 is None:
        psi = initial_state(grid, packet, stack.outside)
    else:
        psi = np.asarray(psi0, dtype=complex).copy()
        psi /= math.sqrt(grid.dx * float(np.sum(np.abs(psi) ** 2)))

    j = int(np.searchsorted(x, x_sep, side="right"))  # first point beyond x_sep
    e_start = grid.dx * _energy(diag - (diag[0] + 2.0 * off[0]), off, psi)

    n_rec = grid.n_steps + 1
    times = grid.dt * np.arange(n_rec)
    produced = None
    if np.all(diag == diag[0]) and np.all(off == off[0]):  # a uniform medium
        box = x.size
        if monitor_walls:
            end = _reach(packet, stack.outside, grid.t_final)
            box = _smooth_size(max(box, math.ceil((end - x[0]) / grid.dx) + 1))
        produced = _uniform_sums(diag[0], off[0], lam, psi, x, j, n_rec, box)
    lead = None
    if produced is None and monitor_walls:
        face = 0.5 * stack.width
        if not x[1] < -face:  # so H's first row is the lead's
            raise ValidationError(f"the open left end at {x[0]} nm and its next site must lie in "
                                  f"the lead, left of the stack's face at {-face} nm")
        if not x[-2] > face:  # and its last row
            raise ValidationError(f"the open right end at {x[-1]} nm and its previous site must "
                                  f"lie in the lead, right of the stack's face at {face} nm")
        lead = off[0], _ghost_kernel(diag[0], off[0], lam, grid.n_steps)
    sums, psi, energy, wall = produced or _stepped_sums(diag, off, lam, psi, x, j, n_rec, lead)
    norm, beyond, moment, left, right = grid.dx * sums
    total = norm + left + right
    jump = np.abs(np.diff(total, prepend=1.0))
    require(jump <= 1e-6, NumericError,
            "norm jumped by {jump:.2e} in one step at t = {t:.1f} fs", jump=jump, t=times)
    if monitor_walls and wall is not None:
        require(grid.dx * wall <= 1e-10, NumericError,
                "density {wall:.2e} reached a domain wall at t = {t:.1f} fs; "
                "enlarge the domain or shorten the run", wall=grid.dx * wall, t=times)
    beyond_prob = beyond + right
    with np.errstate(divide="ignore", invalid="ignore"):
        shown = (beyond_prob > 1e-4 * beyond_prob[-1]) & (right < _RIGHT_FLOOR)
        centroid = np.where(shown, moment / beyond, math.nan)

    return PacketRecord(
        times=times,
        beyond_prob=beyond_prob,
        centroid=centroid,
        x_sep=x_sep,
        norm_drift=float(np.max(np.abs(total - 1.0))),
        energy_drift=float(abs(grid.dx * energy - e_start) / max(abs(e_start), 1e-30)),
        left_outflow=float(left[-1]),
        right_outflow=float(right[-1]),
        psi_final=psi,
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
    if not (series.transmitted_fraction > 1e-4):
        raise NoTransmissionError(
            f"transmitted fraction {series.transmitted_fraction:.2e} too small "
            f"to define an arrival"
        )
    if series.times.shape != free_reference.times.shape or not np.allclose(
        series.times, free_reference.times
    ):
        raise ValidationError("stack run and free reference use different time grids")
    if not (series.x_sep < x_d):
        raise ValidationError(
            f"detector {x_d} must lie beyond the separator {series.x_sep}"
        )
    arrival, arrival_free = (_arrival(r.times, r.centroid, r.beyond_prob, x_d)
                             for r in (series, free_reference))
    return DelayResult(
        arrival_detected=arrival,
        arrival_free=arrival_free,
        delay=arrival - arrival_free,
        transmitted_fraction=series.transmitted_fraction,
        bloch_time_prediction=bloch_time_prediction,
    )


def measure_delay(stack: StackSpec, grid: Grid1D, packet: WavePacket, x_sep: float,
                  x_d: float) -> tuple[DelayResult, PacketRecord, PacketRecord]:
    """The packet delay on a plan (``plan_run``'s grid, packet, x_sep, x_d):
    (``packet_delay`` of the two runs, the run on ``stack``, its free-space
    control on ``free_reference(stack)``)."""
    run = evolve(stack, grid, packet, x_sep)
    free = evolve(free_reference(stack), grid, packet, x_sep)
    return packet_delay(run, x_d, free), run, free


def _arrival(times: np.ndarray, centroid: np.ndarray, prob: np.ndarray, x_d: float) -> float:
    """First upward crossing of ``x_d`` by the transmitted centroid, linearly
    interpolated between samples; a sample counts only if its transmitted
    probability (or any multiple of it) exceeds 1e-4 of the last sample's."""
    ok = np.isfinite(centroid) & (prob > 1e-4 * prob[-1])
    up = ok[:-1] & ok[1:] & (centroid[:-1] <= x_d) & (centroid[1:] > x_d)
    hits = np.flatnonzero(up)
    if hits.size == 0:
        raise NumericError(
            f"transmitted centroid never crossed the detector at {x_d} nm; extend the run "
            f"(final centroid {centroid[ok][-1] if ok.any() else math.nan:.1f} nm)"
        )
    i = int(hits[0])
    frac = (x_d - centroid[i]) / (centroid[i + 1] - centroid[i])
    return float(times[i] + frac * (times[i + 1] - times[i]))


def _free_width(sigma_x: float, outside: Layer, t: float) -> float:
    """The width of a free Gaussian packet of initial width ``sigma_x`` after ``t`` fs."""
    alpha = CONSTANTS.hbar2_over_2m0 / outside.mass_ratio
    return sigma_x * math.hypot(1.0, alpha * t / (CONSTANTS.hbar * sigma_x**2))


def _reach(packet: WavePacket, outside: Layer, t_final: float) -> float:
    """Where a closed box's right wall sits for a run of ``t_final`` fs: the free
    packet's centre at the end, plus ten of its dispersed widths then, so that a
    1e-10 wall monitor keeps a 10-sigma margin."""
    v0 = CONSTANTS.velocity(packet.k0(outside), outside.mass_ratio)
    return packet.x0 + v0 * t_final + 10.0 * _free_width(packet.sigma_x, outside, t_final)


#: the open right end sits this many free widths past the detector (``plan_run``)
_RIGHT_WIDTHS = 10.0


def plan_run(
    stack: StackSpec,
    E0: float,
    sigma_x: float,
    dx: float = 0.25,
    dt: float = 1.0,
    extra_time: float = 0.0,
) -> tuple[Grid1D, WavePacket, float, float]:
    """Geometry and duration for a standard left-to-right run.

    Returns (grid, packet, x_sep, x_d).  The separator sits one grid cell
    past the stack's right face, the packet starts ten widths left of the
    stack, and the detector sits six widths past it.  The run lasts 1.5
    free travel times to 6 widths past the detector.  Both ends are open
    (``evolve``).  The reflected packet leaves through the left end, the
    last lattice point at or left of x0 - 11 sigma.  There the launch
    packet's amplitude, e^-121/4 = 7e-14 of its peak, is below the sine
    modes' floor, so a uniform medium's run (``free_reference``) keeps the
    few modes it has; at ten widths (1.4e-11) it would fill over a tenth of
    them and be stepped.  The transmitted packet leaves through the right
    end, the first lattice point at or right of x_d + 10 sigma_f, with
    sigma_f the free packet's width after that travel time; the centroid is
    needed only up to its crossing of x_d, when nearly nothing has reached
    it.  The lattice is the one the closed box had, whose right wall sat at
    ``_reach`` of the run and whose left wall sat at its mirror image about
    x0 moved right by twice -w/2 - x0 in whole cells, so the sites keep
    their place against the layer interfaces.  ``extra_time`` (fs, >= 0)
    only lengthens the run, for slow, resonance-trapped transmission; dt
    may be no longer than the run.
    """
    if not (0 < dx < math.inf and 0 < dt < math.inf and 0 <= extra_time < math.inf):
        raise ValidationError(f"need 0 < dx, dt < inf and 0 <= extra_time < inf, got "
                              f"{dx}, {dt}, {extra_time}")
    half_w = 0.5 * stack.width
    packet = WavePacket(x0=-(half_w + 10.0 * sigma_x), E0=E0, sigma_x=sigma_x)
    v0 = CONSTANTS.velocity(packet.k0(stack.outside), stack.outside.mass_ratio)
    x_d = half_w + 6.0 * sigma_x
    travel = (x_d - packet.x0 + 6.0 * sigma_x) / v0
    t_final = 1.5 * travel + extra_time
    if not dt <= t_final:
        raise ValidationError(f"need dt <= the planned run's {t_final:.6g} fs, got {dt}")
    closed = (2.0 * packet.x0 - _reach(packet, stack.outside, t_final)
              + dx * math.floor(2.0 * (-half_w - packet.x0) / dx))
    x_min = closed + dx * math.floor((packet.x0 - 11.0 * sigma_x - closed) / dx)
    x_right = x_d + _RIGHT_WIDTHS * _free_width(sigma_x, stack.outside, 1.5 * travel)
    grid = Grid1D(
        x_min=x_min,
        x_max=x_min + dx * math.ceil((x_right - x_min) / dx),
        dx=dx,
        dt=dt,
        n_steps=int(math.ceil(t_final / dt)),
    )
    return grid, packet, half_w + dx, x_d


#: ``stationary_packet_delay``'s sampling step (fs), plane waves and samples per FFT
_SAMPLE_DT, _N_K, _CHUNK = 20.0, 800, 64


def stationary_packet_delay(
    stack: StackSpec,
    packet: WavePacket,
    x_sep: float,
    x_d: float,
    t_max: float,
) -> float:
    """Centroid-crossing delay predicted by the stationary amplitudes.

    Builds the transmitted packet as a superposition of plane waves weighted
    by the packet spectrum and the origin-referenced t(E), and subtracts the
    free-space (t = 1) arrival, both read by ``packet_delay``'s arrival rule
    (NumericError if a centroid has not crossed ``x_d`` by ``t_max``).  This
    is the fair stationary-theory prediction for a TDSE run: at a narrow
    resonance the transmitted packet is strongly stretched, and the centroid
    crossing legitimately sits below the naive spectrum-averaged phase-time
    delay because density that is still trapped when the centroid passes the
    detector cannot contribute.  A t_max <= 0 is refused, and so is a packet
    whose spectrum reaches k <= 0, where no right-moving lead wave exists.

    The density is summed over x_j = x_sep + j nm, j < n, out to the free
    packet's reach.  On the k grid k_0 + m dk, it and its first moment are sums
    over the lag d of R(d) = sum_m a_m+d conj(a_m), the inverse FFT of |A|^2
    (A the amplitudes' zero-padded FFT), times S0(d) = sum_j e^(i d dk x_j) =
    e^(2iuc) D and S1(d) = sum_j x_j e^(i d dk x_j) = e^(2iuc) (c D - i D'/2),
    u = d dk/2, c the middle x_j, D = sin(nu)/sin(u): each is |A|^2 times its
    kernel's inverse FFT, so no plane wave is formed and n costs nothing.
    """
    from numpy import fft

    if not (0 < t_max < math.inf):
        raise ValidationError(f"need 0 < t_max < inf, got {t_max}")
    k0 = packet.k0(stack.outside)
    sigma_k = 0.5 / packet.sigma_x
    k = np.linspace(k0 - 6.5 * sigma_k, k0 + 6.5 * sigma_k, _N_K)
    if not (k[0] > 0):
        raise ValidationError(f"the spectrum of a sigma_x = {packet.sigma_x} nm packet reaches "
                              f"k <= 0; use a wider packet (larger sigma_x)")
    spec = np.exp(-(packet.sigma_x**2) * (k - k0) ** 2 - 1j * (k - k0) * packet.x0)
    alpha = CONSTANTS.hbar2_over_2m0 / stack.outside.mass_ratio
    E = alpha * k**2 + stack.outside.potential
    omega = E / CONSTANTS.hbar
    _, t_amp, *_ = _origin_jet(stack, E)

    v0 = CONSTANTS.velocity(k0, stack.outside.mass_ratio)
    n = max(0, math.ceil(packet.x0 + v0 * t_max + 10.0 * packet.sigma_x - x_sep))
    c, size = x_sep + 0.5 * (n - 1), 1 << (2 * _N_K - 1).bit_length()
    u = 0.5 * (k[-1] - k[0]) / (_N_K - 1) * np.arange(1, _N_K)  # the lags d >= 1
    D, turn = np.sin(n * u) / np.sin(u), np.exp(2j * c * u)
    dD = (n * np.cos(n * u) - D * np.cos(u)) / np.sin(u)
    # S0 and S1 from d = 0 on; S(-d) = conj S(d), so each kernel's inverse FFT is real
    kernels = fft.irfft([np.r_[n, turn * D], np.r_[n * c, turn * (c * D - 0.5j * dD)]], size)
    times = np.arange(0.0, t_max, _SAMPLE_DT)
    weights = np.stack([spec * t_amp, spec])  # the stack, then free space (t = 1)
    sums = np.empty((2, 2, times.size))  # (stack, free) x (sum, first moment) x sample
    for first in range(0, times.size, _CHUNK):
        some = times[first:first + _CHUNK]
        f = fft.fft(weights[:, None, :] * np.exp(-1j * omega * some[:, None]), size)
        sums[..., first:first + some.size] = kernels @ (f.real**2 + f.imag**2).swapaxes(1, 2)
    with np.errstate(divide="ignore", invalid="ignore"):  # no positions: 0/0
        arrival, arrival_free = (_arrival(times, moment / p, p, x_d) for p, moment in sums)
    return arrival - arrival_free


def spectral_average(
    energies: np.ndarray,
    values: np.ndarray,
    packet: WavePacket,
    outside: Layer,
) -> float:
    """Packet-spectrum-weighted mean of a curve sampled on ``energies``.

    The weight is the packet's energy spectrum, the momentum Gaussian
    |psi(k)|^2 ~ exp(-2 sigma_x^2 (k - k0)^2) mapped through the lead
    dispersion (Jacobian dk/dE included).  Weight outside the sampled
    energy range is left out; the caller states how much that is.
    """
    energies = np.asarray(energies, dtype=float)
    values = np.asarray(values, dtype=float)
    if energies.ndim != 1 or energies.shape != values.shape or energies.size < 2:
        raise ValidationError("need matching 1-d energy/value arrays, >= 2 samples")
    if not np.all(np.diff(energies) > 0):
        raise ValidationError("energies must be strictly increasing")
    k0 = packet.k0(outside)
    e_kin = energies - outside.potential
    if not np.all(e_kin > 0):
        raise ValidationError("curve extends below the lead band bottom")
    k = np.sqrt(e_kin * outside.mass_ratio / CONSTANTS.hbar2_over_2m0)
    dk_dE = 0.5 * k / e_kin
    w = np.exp(-2.0 * packet.sigma_x**2 * (k - k0) ** 2) * dk_dE
    total = np.trapezoid(w, energies)
    if not (total > 0.0):
        raise NumericError("packet spectrum has no weight on the sampled range")
    return float(np.trapezoid(w * values, energies) / total)
