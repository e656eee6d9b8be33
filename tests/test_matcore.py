import numpy as np
import pytest

from spinqfi import collective, interferometer, landscape, matcore, states
from spinqfi.errors import DimensionCapError, NumericalError, ValidationError

from helpers import SZ


def test_eigh_ascending_and_reconstructs():
    rng = np.random.default_rng(11)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a = g + g.conj().T
    dec = matcore.eigh(a)
    assert np.all(np.diff(dec.values) >= -1e-12)
    np.testing.assert_allclose(dec.reconstruct(), a, atol=1e-12)


def test_eigh_symmetrizes_small_asymmetry():
    a = np.diag([1.0, 2.0]).astype(complex)
    a[0, 1] = 1e-12  # below tolerance, symmetrized away
    dec = matcore.eigh(a)
    np.testing.assert_allclose(dec.values, [1.0, 2.0], atol=1e-11)


def test_eigh_rejects_gross_asymmetry():
    a = np.array([[1.0, 0.5], [0.0, 2.0]], dtype=complex)
    with pytest.raises(NumericalError):
        matcore.eigh(a)


def test_hermiticity_residue_reports_max_deviation():
    a = np.zeros((3, 3), dtype=complex)
    a[0, 2] = 2e-7
    assert matcore.hermiticity_residue(a) == pytest.approx(2e-7)


def test_herm_exp_is_unitary_phase_generator():
    # diagonal generator: phases are explicit
    u = matcore.herm_exp(SZ, 0.3)
    np.testing.assert_allclose(np.diag(u), [np.exp(0.3j), np.exp(-0.3j)], atol=1e-14)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)


def test_herm_exp_inverse_is_negated_time():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = g + g.conj().T
    u = matcore.herm_exp(a, 0.7) @ matcore.herm_exp(a, -0.7)
    np.testing.assert_allclose(u, np.eye(4), atol=1e-12)


def test_spectral_decomposition_is_frozen():
    dec = matcore.eigh(np.eye(2, dtype=complex))
    with pytest.raises(AttributeError):
        dec.values = np.zeros(2)
    assert not dec.values.flags.writeable


def test_check_dim_enforces_cap():
    matcore.check_dim(2 ** 12)
    with pytest.raises(DimensionCapError):
        matcore.check_dim(2 ** 13)
    with pytest.raises(DimensionCapError):
        matcore.check_dim(9, cap=8)
    with pytest.raises(DimensionCapError):  # a larger cap never lifts the ceiling
        matcore.check_dim(2 ** 13, cap=2 ** 20)
    with pytest.raises(DimensionCapError):
        matcore.check_qubits(13, cap=2 ** 62)


def test_non_square_input_rejected():
    with pytest.raises(ValidationError):
        matcore.eigh(np.zeros((2, 3)))


def _warm_then_float():
    landscape.normalized_amplitudes((1, 0, 0), 8)  # a cached N = 8 model must not admit 8.0
    return landscape.normalized_amplitudes((1, 0, 0), 8.0)


@pytest.mark.parametrize("call", [
    lambda: states.ghz(4.0),
    lambda: states.ghz(True),
    lambda: states.dicke(np.float64(4), 2),
    lambda: interferometer.Measurement.parity("x", 3.0),
    lambda: interferometer.Measurement.computational(3.0),
    lambda: collective.collective_j("x", 3.0),
    lambda: landscape.landmark_points(6.5),
    lambda: landscape.landmark_specs(6.0),
    lambda: landscape.sample_dicke_plane(8.9, 1, 0),
    lambda: landscape.product_state_for_point((4.0, 4.0, 0.0), 4.0),
    lambda: landscape.alpha_for_point((24.0, 24.0, 32.0), 8.0),
    lambda: landscape.realize_dicke_point((12.0, 12.0, 16.0), 8.0),
    lambda: landscape.closed_form_check((1, 0, 0), 8.0),
    _warm_then_float,
], ids=["ghz-float", "ghz-bool", "dicke-np-float", "parity", "computational", "collective_j",
        "landmark_points", "landmark_specs", "sample_dicke_plane", "product_state_for_point",
        "alpha_for_point", "realize_dicke_point", "closed_form_check", "cached-model"])
def test_non_integer_qubit_counts_are_validation_errors(call):
    # int() would read 6.5 as 6 and True as 1; numpy would fail with a bare TypeError
    with pytest.raises(ValidationError, match="n_qubits must be an integer"):
        call()


def test_numpy_integer_qubit_counts_pass():
    assert states.ghz(np.int64(3)).n_qubits == 3
    assert len(landscape.landmark_points(np.int64(6))) == 13
    assert matcore.check_integer(np.int32(5), "k") == 5
