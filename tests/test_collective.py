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
