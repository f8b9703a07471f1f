"""Transfer matrices against an independent brute-force construction.

The oracle below builds the cell matrix by multiplying explicit 2x2
interface/propagation factors on plane-wave coefficients -- no shared code
with the package's closed-form single pass, and complex arithmetic
throughout so in-gap (evanescent) energies exercise the same path.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import asymmetric_cells, stacks, symmetric_cells
from sltime import precise
from sltime.errors import NoTransmissionError, ValidationError
from sltime.kard import band_structure
from sltime.medium import (
    CONSTANTS, CellSpec, EnergyGrid, Layer, StackSpec, load_stack, representative_cell,
)
from sltime.tmatrix import (
    Amplitudes,
    Jet,
    TransferMatrix,
    amplitudes,
    cell_matrix,
    energy_jet,
    stack_matrix,
)

OUT = Layer(9.5, 0.0, 0.067)


def brute_cell_matrix(E: float, cell: CellSpec, out: Layer) -> np.ndarray:
    """Interface-by-interface product, cell-edge referenced."""
    c2 = CONSTANTS.hbar2_over_2m0

    def k_of(V, m):
        return cmath.sqrt(complex(E - V) * m / c2)

    def iface(k1, m1, k2, m2):
        r = (k2 / m2) / (k1 / m1)
        return 0.5 * np.array([[1 + r, 1 - r], [1 - r, 1 + r]], dtype=complex)

    def prop(k, w):
        return np.array([[cmath.exp(-1j * k * w), 0],
                         [0, cmath.exp(1j * k * w)]], dtype=complex)

    M = np.eye(2, dtype=complex)
    prev_k, prev_m = k_of(out.potential, out.mass_ratio), out.mass_ratio
    for layer in cell.layers:
        k = k_of(layer.potential, layer.mass_ratio)
        M = M @ iface(prev_k, prev_m, k, layer.mass_ratio) @ prop(k, layer.width)
        prev_k, prev_m = k, layer.mass_ratio
    return M @ iface(prev_k, prev_m, k_of(out.potential, out.mass_ratio), out.mass_ratio)


# Textbook single-barrier transmission, mass-weighted matching.  Frozen
# evaluations of this closed form pin the whole chain below.
BARRIER_T = {
    100.0: 0.064933481285548003,
    200.0: 0.17095186318130273,
    350.0: 0.44131312552995111,  # above the barrier top
    50.0: 0.028555849323756381,
}


@pytest.mark.parametrize("E,expected", sorted(BARRIER_T.items()))
def test_single_barrier_transmission_frozen(E, expected):
    bar = StackSpec(core=CellSpec((Layer(3.0, 290.0, 0.0919),), symmetric=True),
                    replicas=1, outside=OUT)
    assert amplitudes(stack_matrix(E, bar)).T == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("E", [45.0, 55.0, 60.0, 120.0, 297.3])
def test_cell_matrix_matches_brute_product(E):
    cell = CellSpec((Layer(3.25, 0.0, 0.067), Layer(3.0, 290.0, 0.0919),
                     Layer(3.25, 0.0, 0.067)), symmetric=True)
    M = cell_matrix(E, cell, outside=OUT)
    B = brute_cell_matrix(E, cell, OUT)
    assert M.m11 == pytest.approx(B[0, 0], abs=1e-12 * abs(B[0, 0]) + 1e-14)
    assert M.m21 == pytest.approx(B[1, 0], abs=1e-12 * abs(B[0, 0]) + 1e-14)


@given(asymmetric_cells(), st.floats(5.0, 380.0))
def test_brute_oracle_over_random_cells(cell, E):
    # the brute factors blow up at k = 0 inside a layer; the package handles
    # that limit by series, tested separately below
    assume(all(abs(E - layer.potential) > 1e-6 for layer in cell.layers))
    M = cell_matrix(E, cell, outside=OUT)
    B = brute_cell_matrix(E, cell, OUT)
    scale = max(abs(B).max(), 1.0)
    assert abs(M.m11 - B[0, 0]) < 1e-10 * scale
    assert abs(M.m21 - B[1, 0]) < 1e-10 * scale


@given(stacks(), st.floats(5.0, 380.0))
def test_unimodularity_and_structure(stack, E):
    # |m11|^2 - |m21|^2 cancels catastrophically deep in a gap, so the
    # defect budget scales with the entry size
    M = stack_matrix(E, stack)
    det = M.m11 * M.m11.conjugate() - M.m21 * M.m21.conjugate()
    tol = 1e-10 * (1.0 + abs(M.m11) ** 2)
    assert abs(det.real - 1.0) < tol
    assert abs(det.imag) < tol


@given(stacks(max_replicas=3), st.floats(5.0, 380.0))
def test_flux_conservation(stack, E):
    a = amplitudes(stack_matrix(E, stack))
    assert a.T + abs(a.r) ** 2 == pytest.approx(1.0, abs=1e-10)


@given(symmetric_cells(), st.floats(5.0, 380.0))
def test_symmetric_cell_reflection_phase(cell, E):
    """Mirror-symmetric cell: r/t is purely imaginary (cell-edge frame)."""
    a = amplitudes(cell_matrix(E, cell, outside=OUT))
    if abs(a.r) < 1e-12:
        return
    ratio = a.r / a.t
    assert abs(ratio.real) < 1e-9 * abs(ratio)


def test_free_cell_is_pure_phase():
    cell = CellSpec((Layer(4.0, 0.0, 0.067),), symmetric=True)
    E = 80.0
    k = math.sqrt(E * 0.067 / CONSTANTS.hbar2_over_2m0)
    M = cell_matrix(E, cell, outside=Layer(9.5, 0.0, 0.067))
    assert M.m11 == pytest.approx(cmath.exp(-1j * k * 4.0), abs=1e-13)
    assert abs(M.m21) < 1e-13


def test_low_energy_limit_is_finite():
    # k^2 w^2 below the series switchover: the propagator must stay smooth
    cell = CellSpec((Layer(3.0, 290.0, 0.0919),), symmetric=True)
    st1 = StackSpec(core=cell, replicas=1, outside=OUT)
    t_lo = amplitudes(stack_matrix(1e-9, st1)).T
    t_hi = amplitudes(stack_matrix(1e-6, st1)).T
    assert 0.0 <= t_lo <= t_hi < 1e-8


@given(symmetric_cells(), st.floats(5.0, 380.0), st.integers(2, 12))
def test_power_equals_repeated_compose(cell, E, n):
    M = cell_matrix(E, cell, outside=OUT)
    P = M.power(n)
    Q = M
    for _ in range(n - 1):
        Q = Q @ M
    assert P.m11 == pytest.approx(Q.m11, rel=1e-9, abs=1e-9)
    assert P.m21 == pytest.approx(Q.m21, rel=1e-9, abs=1e-9)


def test_negative_power_is_refused_as_input():
    """M^-1 is not what ``power`` computes: a negative exponent is a
    malformed input (exit 3), not a numerical failure."""
    with pytest.raises(ValidationError, match="negative power -1"):
        cell_matrix(58.0, representative_cell(), outside=OUT).power(-1)


def _sequential_product(E, stack: StackSpec):
    """Every cell of the stack, left end cell first, multiplied on one at a
    time, and the product of the factors' norms |m11| + |m21| (with |d/dE|
    of both entries added for a jet), which bounds that product's roundoff."""
    cells = [stack.core] * stack.replicas
    if stack.left_arc is not None:
        cells.insert(0, stack.left_arc)
    if stack.right_arc is not None:
        cells.append(stack.right_arc)
    total, scale = None, 1.0
    for cell in cells:
        M = cell_matrix(E, cell, stack.outside)
        total = M if total is None else total @ M
        parts = ((M.m11.v, M.m21.v, M.m11.d1, M.m21.d1) if isinstance(M.m11, Jet)
                 else (M.m11, M.m21))
        scale = scale * sum(abs(part) for part in parts)
    return total, scale


def _assert_products_agree(M, Q, scale):
    """Entries, and for jets their value and first-derivative parts, agree
    to 1e-12 of ``scale``."""
    for got, want in ((M.m11, Q.m11), (M.m21, Q.m21)):
        pairs = [(got.v, want.v), (got.d1, want.d1)] if isinstance(got, Jet) else [(got, want)]
        for g, w in pairs:
            assert np.all(abs(g - w) <= 1e-12 * scale)


@st.composite
def dressed_stacks(draw):
    """Stacks of up to 9 cores, each end cell present or not, of any cell."""
    core = draw(st.one_of(symmetric_cells(), asymmetric_cells()))
    end = lambda: draw(st.one_of(st.none(), symmetric_cells(), asymmetric_cells()))
    return StackSpec(core=core, replicas=draw(st.integers(1, 9)), outside=OUT,
                     left_arc=end(), right_arc=end())


@given(dressed_stacks(), st.floats(5.0, 380.0))
def test_stack_matrix_equals_sequential_cell_product(stack, E):
    """End cell, core^N by the Chebyshev identity, end cell: the same matrix as the
    left-to-right product of every cell, bare stacks and dressed alike."""
    Q, scale = _sequential_product(E, stack)
    _assert_products_agree(stack_matrix(E, stack), Q, scale)


@pytest.mark.parametrize("path", ["stacks/rep5.json", "stacks/rep5_arc.json"])
def test_stack_matrix_equals_sequential_cell_product_on_arrays_and_jets(path):
    """The committed bare and ARC stacks, across band 1, its gaps and band 2,
    for an energy array and for the first-order jet of one."""
    stack = load_stack(path)
    E = np.linspace(20.0, 250.0, 301)
    for energy in (E, energy_jet(E)):
        Q, scale = _sequential_product(energy, stack)
        _assert_products_agree(stack_matrix(energy, stack), Q, scale)


#: An opaque 33-cell stack between rep5's leads: 9.25 and 5.91 nm wells
#: around a 13.38 nm, 326.8 meV barrier.  Its band 1 is [16.22054, 16.22073]
#: meV, and its core matrix has entries of about 1e5 there.
_WELL = 0.07081466167376042
OPAQUE_STACK = StackSpec(
    core=CellSpec((Layer(9.249158978226824, 0.0, _WELL),
                   Layer(13.3751383495897, 326.77803375159993, 0.0919),
                   Layer(5.910330584053797, 0.0, _WELL))),
    replicas=33,
    outside=OUT,
)


def test_opaque_stack_matches_the_decimal_reference():
    """|t_N|^2 of ``stack_matrix`` at 120 energies inside band 1 of the
    opaque stack agrees with the 40-digit ``precise.transmission`` to 1e-6
    relative (worst about 1.3e-7).  The core's power by squaring missed it
    by up to 8.6e5 times the value, with no error raised."""
    band = band_structure(OPAQUE_STACK.core, OUT, grid=EnergyGrid.linear(1.0, 100.0, 2))[0]
    assert band.lower == pytest.approx(16.22054, abs=1e-5)
    assert band.upper == pytest.approx(16.22073, abs=1e-5)
    E = EnergyGrid.linear(*band.interior(1e-6), 120).samples
    got = abs(amplitudes(stack_matrix(E, OPAQUE_STACK)).t) ** 2
    want = np.array([precise.transmission(OPAQUE_STACK.core, OUT, 33, float(e)) for e in E])
    assert np.all(np.abs(got - want) <= 1e-6 * want)


def test_cell_matrix_rejects_a_nan_energy():
    """A NaN energy is not above the lead band bottom: the kernel raises
    and names it instead of returning NaN entries."""
    with pytest.raises(NoTransmissionError, match=r"^E = nan meV is at or below"):
        cell_matrix(np.array([10.0, math.nan]), representative_cell(), OUT)


def test_compose_refuses_matrices_at_different_energies():
    """``@`` refuses to multiply matrices made at different energies, and
    accepts equal energy arrays held in distinct objects."""
    cell = representative_cell()
    with pytest.raises(ValidationError, match="different energies: 55.0 vs 60.0"):
        cell_matrix(55.0, cell, OUT) @ cell_matrix(60.0, cell, OUT)
    E = np.linspace(55.0, 60.0, 4)
    with pytest.raises(ValidationError, match="different energies"):
        cell_matrix(E, cell, OUT) @ cell_matrix(E + 0.5, cell, OUT)
    a, b = cell_matrix(E, cell, OUT), cell_matrix(E.copy(), cell, OUT)
    assert a.ref_energy is not b.ref_energy
    ab = a @ b
    assert ab.ref_energy is a.ref_energy
    assert np.array_equal(ab.m11, a.m11 * b.m11 + a.m21.conjugate() * b.m21)


def test_amplitudes_reject_zero_energy_wave():
    stack = StackSpec(core=CellSpec((Layer(3.0, 290.0, 0.0919),), symmetric=True),
                      replicas=1, outside=OUT)
    with pytest.raises(Exception):
        stack_matrix(-5.0, stack)
