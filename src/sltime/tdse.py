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
  drift (of norm plus outflow, with the open end below) is a pure
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
  and 2 for the bottom block (93 at 10.1k-10.2k points), each given its output
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
- An open left end, a hard right wall.  The reflected packet leaves
  through a discrete transparent boundary, exact for Crank-Nicolson on a
  uniform lattice (A. Arnold, VLSI Design 6 (1998) 313; M. Ehrhardt &
  A. Arnold, Riv. Mat. Univ. Parma (6) 4 (2001) 57).  With chi = psi^n+1 +
  psi^n, the stepper's chi, the ghost site left of the grid is
  chi_-1^n = sum_k=0..n s_k chi_0^n-k, where nu(z) = sum_k s_k z^-k is the
  root with |nu| < 1 of nu + 1/nu = (kappa - d)/o, kappa = (1 - z)/(i lam
  (1 + z)), lam = dt/2hbar, and d and o H's first row, diag[0] and off[0],
  which are the lead's: the Z-transform in time of the lead's decaying
  solution.  So row 0 of A/2 gains i lam o s_0/2 once, and each step moves
  psi_0 by delta = -i lam o sum_k>=1 s_k chi_0^n-k / 2 before the solve and
  again after it.  s_0 = nu(infinity), where (kappa - d)/o = (i/lam - d)/o
  has a negative imaginary part (o < 0), so Im s_0 > 0: the term only adds
  -lam o Im s_0 > 0 to the Hermitian part of A, and the reduction still
  needs no pivoting.  The sum over the history is one einsum a step, of
  the reversed kernel with the chi_0 so far, about 3 % of a run.  With H the
  grid's matrix without the ghost, a step gives exactly
  |psi^n+1|^2 - |psi^n|^2 = lam o Im(conj(chi_0) chi_-1) and
  E^n+1 - E^n = lam o Im(conj((H chi)_0) chi_-1) (times dx), so the
  probability and energy that have left are summed, and the norm and
  energy checks read norm plus outflow and energy plus outflow.  The grid's
  first two sites must lie in the lead, and nothing left of it at the start:
  ``plan_run`` ends it eleven widths left of the launch point.  The right
  wall keeps every transmitted particle on the grid for ``beyond_prob``;
  the domain is sized so that nothing meaningful reaches it during the
  run, density near it is monitored, and a violation raises instead of
  quietly contaminating the interior.  ``monitor_walls=False`` runs and
  sine-mode runs are closed boxes: hard walls at both ends, and a
  monitored sine-mode run watches both.  The stepper's closed box is the
  open end with o = 0 and a zero kernel.

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

    ``beyond_prob`` is the probability beyond the separator ``x_sep`` and
    ``centroid`` the mean position of that transmitted portion, reported
    wherever ``beyond_prob`` > 1e-14 (nan elsewhere).  A sine-mode run drops
    modes under 1e-13 of the largest, so below a tail of about 1e-7 its
    centroid is not resolved: in ``sltime tdse``'s series it moved by up to
    12 nm when only the box's left end moved.  The arrival rule
    (``packet_delay``) reads only samples above 1e-4 of the last.
    ``left_outflow`` is the probability that has
    left through an open left end by the end of the run (0 in a closed
    box).  ``norm_drift`` is the largest departure of norm plus outflow from
    1 over the run, and ``energy_drift`` that of the final energy plus the
    energy that left from the initial energy, relative to the latter.
    """

    times: np.ndarray
    beyond_prob: np.ndarray
    centroid: np.ndarray
    x_sep: float
    norm_drift: float
    energy_drift: float
    left_outflow: float
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


def _lead_nu(z: np.ndarray, d: float, o: float, lam: float) -> np.ndarray:
    """nu(z), the root with |nu| < 1 of nu + 1/nu = (kappa - d)/o, where
    kappa = (1 - z)/(i lam (1 + z)): the lead's decaying Z-transformed solution."""
    w = (0.5 / o) * ((1.0 - z) / (1j * lam * (1.0 + z)) - d)
    root = np.sqrt(w * w - 1.0)
    return 1.0 / (w + np.where((w.conj() * root).real >= 0.0, root, -root))  # 1 / the larger root


def _ghost_kernel(d: float, o: float, lam: float, n_steps: int) -> np.ndarray:
    """s_0 .. s_n_steps, the coefficients of nu(z) = sum_k s_k z^-k (module notes).

    One inverse FFT of nu on |z| = rho, with rho^-M = 1e-10, gives s_k rho^-k
    for k < M, M a power of two >= 4 (n_steps + 1) and >= 1024, so aliasing
    adds 1e-10 of a far smaller s_k+M and rounding grows by at most rho^(M/4).
    Raises NumericError unless s_0 .. s_M/4-1 give nu back on |z| = 1.3 to
    1e-12; those 256 or more terms leave a truncation below 1.3^-256."""
    from numpy import fft

    size = max(1024, 1 << (4 * n_steps + 3).bit_length())
    rho, k = 1e10 ** (1.0 / size), np.arange(size // 4)
    s = fft.ifft(_lead_nu(rho * np.exp(2j * math.pi / size * np.arange(size)), d, o, lam))
    s = s[:k.size] * rho**k
    gap = np.abs(fft.fft(s * 1.3**-k) - _lead_nu(1.3 * np.exp(2j * math.pi / k.size * k),
                                                  d, o, lam)).max()
    require(gap <= 1e-12, NumericError,
            "the open boundary's kernel misses nu(z) on |z| = 1.3 by {gap:.2e}", gap=gap)
    return s[:n_steps + 1]


def _stepped_sums(diag, off, lam, psi, x, j, n_rec, lead=None) -> tuple[np.ndarray, np.ndarray]:
    """Steps ``psi`` in place; per record, |psi|^2 summed everywhere, beyond index ``j``,
    its first moment there and over the heavier five-point wall strip, and the
    probability and energy that have left through an open left end; and the
    final psi.  ``lead`` = (o, s), the lead's off-diagonal and ``_ghost_kernel``,
    opens the left end (module notes), and the strip is the right wall's alone;
    without it o = 0 and s = 0, the closed box, whose strip covers both walls.
    Step k's history sum_m<k s_k-m chi_0 of step m is one einsum of the
    reversed kernel with the chi_0 so far, not BLAS, as the first moment is:
    OpenBLAS runs a zdotu of over 10000 elements on two threads, whose
    spinning cost an 11788-step run a quarter more CPU time."""
    o, s = lead or (0.0, np.zeros(n_rec))
    a_diag = 0.5 + 0.5j * lam * diag
    a_diag[0] += 0.5j * lam * o * s[0]
    half_a = _CyclicReduction(0.5j * lam * off, a_diag, 0.5j * lam * off)
    state = half_a.psi
    np.copyto(state, psi)
    n, c, back = n_rec - 1, 0.5j * lam * o, s[:0:-1]  # back[n - k:] = s_k .. s_1
    chi0, rests, edge = np.zeros(n, complex), np.zeros(n, complex), np.empty(n_rec, complex)
    edge[0] = psi[1]  # psi_1 per record
    re, im, dens, im2 = state.real, state.imag, np.empty(psi.size), np.empty(psi.size)
    x_tail, tail, head, foot = x[j:], dens[j:], dens[:0 if lead else 5], dens[-5:]
    square, add, total, einsum = np.square, np.add, np.add.reduce, np.einsum
    sums = np.zeros((6, n_rec))
    for i in range(n_rec):
        if i:  # step k: psi_0 moves by -c rest before the solve and again after it
            k = i - 1
            rest = einsum("i,i->", back[n - k:], chi0[:k])
            p0, move = state.item(0), c * rest  # a closed box's move is +0, which changes no bit
            state[0] = p0 - move
            half_a.step()
            q0 = state.item(0) - move
            state[0] = q0
            chi0[k], rests[k], edge[i] = q0 + p0, rest, state.item(1)
        square(re, dens)
        square(im, im2)
        add(dens, im2, dens)
        moment = einsum("i,i->", x_tail, tail)  # not BLAS, which threads long dots
        sums[:4, i] = total(dens), total(tail), moment, max(total(head), total(foot))
    # the balances of the module notes, step by step, summed from +0 so a closed box reads +0
    ghost = (s[0] * chi0 + rests).conj()
    sums[4, 1:] = (chi0 * ghost).imag
    sums[5, 1:] = ((diag[0] * chi0 + off[0] * (edge[1:] + edge[:-1])) * ghost).imag
    np.cumsum(sums[4:], axis=1, out=sums[4:])
    sums[4:] *= lam * o
    np.copyto(psi, state)
    return sums, psi


#: modes under _MODE_FLOOR of the largest are dropped; over n/_MODE_COST kept, steps are cheaper
_MODE_FLOOR, _MODE_COST = 1e-13, 10


def _uniform_sums(d, o, lam, psi, x, j, n_rec) -> tuple[np.ndarray, np.ndarray] | None:
    """``_stepped_sums`` of a uniform medium, H = tridiag(o, d, o), in its sine
    modes (module notes), between two walls, so nothing flows out; None where
    they would cost more than the steps."""
    from numpy import fft

    n = psi.size
    odd = lambda v: fft.rfft(np.concatenate(([0.0], v, [0.0], -v[::-1]))).imag[1:n + 1]
    dst = lambda v: -0.5 * (odd(v.real) + 1j * odd(v.imag))  # sum_i v_i sin(pi i m/(n+1))
    coef = dst(psi)
    kept = np.flatnonzero(~(np.abs(coef) <= _MODE_FLOOR * np.abs(coef).max()))  # NaN: all, so steps
    lo, size = int(kept[0]), int(kept[-1]) + 1 - int(kept[0])
    if size * _MODE_COST > n:
        return None
    a, m = coef[lo:lo + size] * (2.0 / (n + 1)), np.arange(lo + 1, lo + size + 1)
    phase = 2.0 * np.arctan(lam * (d + 2.0 * o * np.cos(math.pi / (n + 1) * m)))
    # the FFT length: the least 2^k, 3 2^k or 5 2^k that holds T's and K's 2M - 1
    span = min(f << (-(-(2 * size - 1) // f) - 1).bit_length() for f in (1, 3, 5))
    r = np.arange(span)
    p = np.concatenate((np.minimum(r, span - r), 2 * lo + 2 + r)) % (2 * n + 2)  # T, K
    w = np.zeros((2, 2 * n + 2))  # the weights 1 and x on the tail, i = j+1 .. n
    w[0, j + 1:n + 1], w[1, j + 1:n + 1] = 1.0, x[j:]
    strips = np.cos(math.pi / (n + 1) * np.multiply.outer(np.r_[1:6, n - 4:n + 1], p))
    c = np.concatenate((fft.rfft(w)[:, np.minimum(p, 2 * n + 2 - p)].real,  # C(2n+2-p) = C(p)
                        strips.reshape(2, 5, -1).sum(axis=1)))
    hats = fft.fft(c.reshape(4, 2, span))
    t_hat, k_hat = hats[:, 0].real * (0.5 / span), np.ascontiguousarray(hats[:, 1] * (-0.5 / span))
    block = max(1, 8192 // span)  # records a pass: arrays of at most 8192 complex
    advance = np.exp(-1j * np.outer(np.arange(block), phase))
    sums = np.empty((5, n_rec))
    sums[0] = 0.5 * (n + 1) * np.sum(a.real**2 + a.imag**2)
    for k in range(0, n_rec, block):
        f = fft.fft(advance[:n_rec - k] * (a * np.exp(-1j * k * phase)), span)
        pair = f * np.roll(f[:, ::-1], 1, axis=1).conj()  # f(q) f(-q)*
        sums[1:, k:k + len(f)] = (np.einsum("kq,wq->wk", f.real**2 + f.imag**2, t_hat)
                                  + np.einsum("kq,wq->wk", pair.view(float), k_hat.view(float)))
    coef[:] = 0.0
    coef[lo:lo + size] = a * np.exp(-1j * (n_rec - 1) * phase)
    return np.vstack((sums[:3], np.maximum(sums[3], sums[4]), np.zeros((2, n_rec)))), dst(coef)


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
    and the density within five cells of either wall.  A monitored stepped
    run (``monitor_walls``, the default) has an open left end, the discrete
    transparent boundary of the module notes, and records the probability
    and energy that leave through it; its grid's first two sites must lie in
    the left lead, left of -w/2 (else ValidationError before any step), so
    that H's first row is the lead's d and o, and only its right wall is a
    wall.  Sine-mode runs keep both walls.  Then each check runs once over
    its series, naming the first failing step: a jump of norm plus
    outflow above 1e-6 in one step (a NaN state fails at t = 0), then wall
    density above 1e-10 -- either means the run geometry, not the physics,
    produced the numbers.  So a failing run raises only after its last
    step; ``plan_run`` sizes domains so that only misconfigured runs do.
    ``norm_drift`` and ``energy_drift`` are drifts of the totals, inside
    plus outflow.

    ``psi0`` overrides the initial state (used by the stationary-state
    self-test); it is normalized on entry.  ``monitor_walls=False`` keeps
    the closed box with two hard walls and turns the wall check off, for
    closed-box problems whose states legitimately live against the walls.
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
    e_start = grid.dx * float(np.real(np.vdot(psi, _apply_h(diag, off, psi))))

    n_rec = grid.n_steps + 1
    times = grid.dt * np.arange(n_rec)
    uniform = np.all(diag == diag[0]) and np.all(off == off[0])
    produced = _uniform_sums(diag[0], off[0], lam, psi, x, j, n_rec) if uniform else None
    lead = None
    if produced is None and monitor_walls:
        if not x[1] < -0.5 * stack.width:  # so H's first row is the lead's
            raise ValidationError(f"the open left end at {x[0]} nm and its next site must lie in "
                                  f"the lead, left of the stack's face at {-0.5 * stack.width} nm")
        lead = off[0], _ghost_kernel(diag[0], off[0], lam, grid.n_steps)
    sums, psi = produced or _stepped_sums(diag, off, lam, psi, x, j, n_rec, lead)
    norm, beyond, moment, wall, out, e_out = grid.dx * sums
    total = norm + out
    jump = np.abs(np.diff(total, prepend=1.0))
    require(jump <= 1e-6, NumericError,
            "norm jumped by {jump:.2e} in one step at t = {t:.1f} fs", jump=jump, t=times)
    if monitor_walls:
        require(wall <= 1e-10, NumericError,
                "density {wall:.2e} reached a domain wall at t = {t:.1f} fs; "
                "enlarge the domain or shorten the run", wall=wall, t=times)
    with np.errstate(divide="ignore", invalid="ignore"):
        centroid = np.where(beyond > 1e-14, moment / beyond, math.nan)

    e_end = grid.dx * float(np.real(np.vdot(psi, _apply_h(diag, off, psi))))
    energy_drift = float(abs(e_end + e_out[-1] - e_start) / max(abs(e_start), 1e-30))
    return PacketRecord(
        times=times,
        beyond_prob=beyond,
        centroid=centroid,
        x_sep=x_sep,
        norm_drift=float(np.max(np.abs(total - 1.0))),
        energy_drift=energy_drift,
        left_outflow=float(out[-1]),
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
    stack, and the detector sits six widths past it.  The right wall sits
    the run's reach plus ten dispersed widths right of x0, so that the
    transmitted packet cannot reach it within the run.  The left end is
    open (``evolve``): the reflected packet leaves through it, and it sits
    at the last lattice point at or left of x0 - 11 sigma.  There the launch
    packet's amplitude, e^-121/4 = 7e-14 of its peak, is below the sine
    modes' floor, so a uniform medium's run (``free_reference``) keeps the
    few modes it has in a longer box; at ten widths (1.4e-11) it would fill
    over a tenth of them and be stepped.  The lattice is the one the closed
    box had, whose left wall sat where the right wall's mirror image about
    x0 moved right by twice -w/2 - x0 in whole cells, so the sites keep
    their place against the layer interfaces, and a closed run on that
    longer lattice is the open run's reference.  ``extra_time`` (fs, >= 0)
    only lengthens the run, for slow, resonance-trapped transmission; dt
    may be no longer than the run.
    """
    if not (0 < dx < math.inf and 0 < dt < math.inf and 0 <= extra_time < math.inf):
        raise ValidationError(f"need 0 < dx, dt < inf and 0 <= extra_time < inf, got "
                              f"{dx}, {dt}, {extra_time}")
    half_w = 0.5 * stack.width
    packet = WavePacket(x0=-(half_w + 10.0 * sigma_x), E0=E0, sigma_x=sigma_x)
    k0 = packet.k0(stack.outside)
    v0 = CONSTANTS.velocity(k0, stack.outside.mass_ratio)
    x_d = half_w + 6.0 * sigma_x
    travel = (x_d - packet.x0 + 6.0 * sigma_x) / v0
    t_final = 1.5 * travel + extra_time
    if not dt <= t_final:
        raise ValidationError(f"need dt <= the planned run's {t_final:.6g} fs, got {dt}")
    n_steps = int(math.ceil(t_final / dt))
    reach = v0 * t_final
    # the packet broadens while it travels; pad with the dispersed width so
    # the 1e-10 wall monitor keeps a 10-sigma margin at the end of the run
    alpha = CONSTANTS.hbar2_over_2m0 / stack.outside.mass_ratio
    sigma_final = sigma_x * math.hypot(1.0, alpha * t_final / (CONSTANTS.hbar * sigma_x**2))
    pad = 10.0 * sigma_final
    closed = packet.x0 - reach - pad + dx * math.floor(2.0 * (-half_w - packet.x0) / dx)
    grid = Grid1D(
        x_min=closed + dx * math.floor((packet.x0 - 11.0 * sigma_x - closed) / dx),
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
    by the packet spectrum and the origin-referenced t(E), and subtracts the
    free-space (t = 1) arrival, both read by ``packet_delay``'s arrival rule
    (NumericError if a centroid has not crossed ``x_d`` by ``t_max``).  This
    is the fair stationary-theory prediction for a TDSE run: at a narrow
    resonance the transmitted packet is strongly stretched, and the centroid
    crossing legitimately sits below the naive spectrum-averaged phase-time
    delay because density that is still trapped when the centroid passes the
    detector cannot contribute.  A t_max <= 0 is refused, and so is a packet
    whose spectrum reaches k <= 0, where no right-moving lead wave exists.
    """
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
    x = np.arange(x_sep, packet.x0 + v0 * t_max + 10.0 * packet.sigma_x, 1.0)
    phase_x = np.outer(1j * k, x)  # (n_k, n_x)
    np.exp(phase_x, out=phase_x)
    times = np.arange(0.0, t_max, _SAMPLE_DT)
    weights = np.stack([spec * t_amp, spec])  # the stack, then free space (t = 1)
    centroid, beyond = np.empty((2, times.size)), np.empty((2, times.size))
    # both superpositions in one (64, n_k) @ (n_k, n_x) product a block of 32
    # samples, up to the block in which both centroids have crossed x_d
    for start in range(0, times.size, 32):
        end = min(start + 32, times.size)
        block = times[start:end]
        amp = (weights[:, None, :] * np.exp(-1j * omega * block[:, None])).reshape(-1, k.size)
        dens = (np.abs(amp @ phase_x) ** 2).reshape(2, block.size, x.size)
        beyond[:, start:end] = p = dens.sum(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            centroid[:, start:end] = (x * dens).sum(axis=2) / p
        try:
            return (_arrival(times[:end], centroid[0, :end], beyond[0, :end], x_d)
                    - _arrival(times[:end], centroid[1, :end], beyond[1, :end], x_d))
        except NumericError:
            if end == times.size:
                raise


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
