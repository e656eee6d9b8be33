import numpy as np
import pytest

from spinqfi import collective
from spinqfi.errors import DimensionCapError, ValidationError

import helpers


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_collective_matches_reference(axis, n):
    # the bit-indexed build and the Kronecker sum write the same exact halves
    assert np.array_equal(collective.collective_j(axis, n), helpers.collective_op(axis, n))


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("n", range(1, 11))
def test_collective_square_is_the_matmul_bit_for_bit(axis, n):
    # J_a^2 as the table writes it, for the dense route's moments
    j = collective.collective_j(axis, n)
    square = collective.dense(axis * 2, n)
    assert square.tobytes() == (j @ j).tobytes()  # signed zeros included
    if n <= 6:
        ref = helpers.collective_op(axis, n)
        assert np.array_equal(square, ref @ ref)


def test_collective_square_takes_only_the_transverse_axes():
    with pytest.raises(ValidationError):
        collective.dense("zz", 3)
    with pytest.raises(DimensionCapError):
        collective.dense("xx", 13)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_direction_terms_apply_j_direction(n):
    # apply_terms with the bit-flip pairs acts as the Kronecker-built J_n on a
    # vector and on the columns of a 2^N x k matrix
    rng = np.random.default_rng(60 + n)
    a = rng.normal(size=(2 ** n, 3)) + 1j * rng.normal(size=(2 ** n, 3))
    for d in [(0.0, 0.0, 1.0), (0.0, -1.0, 0.0), helpers.random_direction(rng)]:
        gen = sum(c * helpers.collective_op(axis, n) for c, axis in zip(d, "xyz"))
        pairs = collective.direction_terms(d, n)
        assert len(pairs) == sum(n if axis != "z" else 1 for c, axis in zip(d, "xyz") if c)
        got = collective.apply_terms(pairs, a)
        assert got.shape == a.shape
        np.testing.assert_allclose(got, gen @ a, rtol=0, atol=1e-13)
        vector = collective.apply_terms(pairs, a[:, 0])
        assert vector.shape == (2 ** n,)
        np.testing.assert_allclose(vector, gen @ a[:, 0], rtol=0, atol=1e-13)


def test_collective_x_spectrum_three_qubits():
    vals = np.linalg.eigvalsh(collective.collective_j("x", 3))
    np.testing.assert_allclose(vals, [-1.5, -0.5, -0.5, -0.5, 0.5, 0.5, 0.5, 1.5],
                               atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_commutation_cycle(n):
    jx, jy, jz = collective.collective_all(n)
    for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy)):
        comm = a @ b - b @ a
        assert np.max(np.abs(comm - 1j * c)) <= 1e-10


@pytest.mark.parametrize("n", [2, 4, 6])
def test_casimir_on_symmetric_state(n):
    # |0...0> is symmetric: total spin j = N/2, so <J^2> = j(j+1)
    jx, jy, jz = collective.collective_all(n)
    v = np.zeros(2 ** n, dtype=complex)
    v[0] = 1.0
    jsq = sum(complex(v.conj() @ (op @ (op @ v))).real for op in (jx, jy, jz))
    assert jsq == pytest.approx((n / 2) * (n / 2 + 1), abs=1e-12)


def test_j_direction_two_qubit_spectrum():
    vals = np.linalg.eigvalsh(
        collective.j_direction(np.ones(3) / np.sqrt(3), 2))
    np.testing.assert_allclose(vals, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_j_direction_requires_unit_vector():
    with pytest.raises(ValidationError):
        collective.j_direction((1.0, 1.0, 1.0), 2)
    with pytest.raises(ValidationError):
        collective.j_direction((0.0, 0.0), 2)
    with pytest.raises(ValidationError, match="finite"):
        collective.check_direction((np.nan, 0.0, 1.0))


def test_axis_recombination():
    # J_n for an axis direction is the plain collective operator
    np.testing.assert_allclose(collective.j_direction((0, 0, 1.0), 3),
                               collective.collective_j("z", 3), atol=1e-14)


def test_memoization_returns_readonly_singleton():
    a = collective.collective_j("y", 4)
    b = collective.collective_j("y", 4)
    assert a is b
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 1.0


def test_dimension_cap_enforced():
    with pytest.raises(DimensionCapError):
        collective.collective_j("z", 13)


def test_collective_rejects_bad_axis_and_size():
    with pytest.raises(ValidationError):
        collective.collective_j("w", 3)
    with pytest.raises(ValidationError):
        collective.collective_j("z", 0)
