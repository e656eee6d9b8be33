"""Dense complex linear algebra substrate.

Everything downstream (collective operators, states, QFI) works with plain
numpy complex128 arrays; this module owns the numerical conventions:

* Hilbert-space dimension is capped at construction time by check_dim /
  check_qubits, the only size guard, at DIM_CAP = 2**12, the largest register
  whose dense 2^N x 2^N arrays (a rho, its eigenvectors, one J at a time)
  the mixed-state route holds. Pure states hold none but keep the same cap;
  states.from_spec alone passes them a caller's cap, which may lower that
  limit but never raise it.
* Hermitian inputs are accepted up to an absolute elementwise tolerance of
  1e-10 and symmetrized before any decomposition.
* Eigenvalues are returned ascending, ties left in decomposition order.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError, NumericalError, ValidationError

DIM_CAP = 2 ** 12
HERM_TOL = 1e-10


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix entries must be finite")
    return a


def check_dim(dim: int, cap: int = DIM_CAP) -> None:
    cap = min(cap, DIM_CAP)
    if dim > cap:
        raise DimensionCapError(f"dimension {dim} exceeds cap {cap}")


def check_integer(value, name: str) -> int:
    """value as an int. Any integer type but bool passes (np.int64 too); a float
    or bool is refused, as int() would read 2.5 as 2 and True as 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_qubits(n_qubits: int, cap: int = DIM_CAP) -> None:
    """n_qubits an integer >= 1 and 2^n_qubits within check_dim's limit; a
    huge n fails without forming 2^n."""
    if check_integer(n_qubits, "n_qubits") < 1:
        raise ValidationError("n_qubits must be positive")
    cap = min(cap, DIM_CAP)
    if n_qubits > cap.bit_length():
        raise DimensionCapError(f"dimension 2^{n_qubits} exceeds cap {cap}")
    check_dim(2 ** n_qubits, cap)


def hermiticity_residue(a: np.ndarray) -> float:
    return float(np.max(np.abs(a - a.conj().T)))


def require_hermitian(a) -> np.ndarray:
    """Symmetrize a nearly-Hermitian matrix; reject anything worse than HERM_TOL."""
    a = _as_square(a)
    res = hermiticity_residue(a)
    if res > HERM_TOL:
        raise NumericalError(f"matrix is not Hermitian: max asymmetry {res:.3e} > {HERM_TOL:.1e}")
    return (a + a.conj().T) / 2.0


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues ascending, eigenvectors as orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        for arr in (self.values, self.vectors):
            if arr.flags.writeable and arr.flags.owndata:
                arr.setflags(write=False)

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T


def eigh(a) -> SpectralDecomposition:
    h = require_hermitian(a)
    vals, vecs = np.linalg.eigh(h)
    return SpectralDecomposition(values=vals, vectors=vecs)


def herm_exp(a, t: float) -> np.ndarray:
    """exp(i*t*a) for Hermitian a, via the eigendecomposition."""
    dec = eigh(a)
    phases = np.exp(1j * t * dec.values)
    return (dec.vectors * phases) @ dec.vectors.conj().T
