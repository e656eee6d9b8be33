"""Collective spin operators J_l = (1/2) sum_k sigma_l^(k).

Site 1 is the most significant tensor factor throughout the package, which
fixes bitstring conventions for the Dicke constructors and the file format.
Collective operators are memoized per (axis, N); cached arrays are returned
read-only and must not be mutated by callers.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .matcore import check_qubits

AXES = ("x", "y", "z")

IDENTITY_2 = np.eye(2, dtype=complex)


def check_axis(label: str) -> str:
    if label not in AXES:
        raise ValidationError(f"axis must be one of {AXES}, got {label!r}")
    return label


def check_direction(n) -> np.ndarray:
    try:
        n = np.asarray(n, dtype=float).reshape(3)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"direction must be a 3-vector: {exc}") from exc
    if not np.all(np.isfinite(n)):
        raise ValidationError("direction entries must be finite")
    nrm = float(np.linalg.norm(n))
    if abs(nrm - 1.0) > 1e-12:
        raise ValidationError(f"direction must be unit norm, got |n| = {nrm!r}")
    return n


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=24)
def _collective_cached(axis: str, n_qubits: int) -> np.ndarray:
    """Each nonzero entry written once. sigma_x and sigma_y flip one bit s of
    the index i; sigma_y's entry is -i where bit s of i is 0 and +i where it
    is 1. J_z is diagonal, (N - 2 popcount(i)) / 2. Every zero is +0.0."""
    dim = 2 ** n_qubits
    idx = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    if axis == "z":
        out.real[idx, idx] = n_qubits / 2 - np.bitwise_count(idx)
    else:
        for s in range(n_qubits):
            flipped = idx ^ (1 << s)
            if axis == "x":
                out.real[idx, flipped] = 0.5
            else:
                out.imag[idx, flipped] = np.where(idx >> s & 1, 0.5, -0.5)
    return _readonly(out)


def collective_j(axis: str, n_qubits: int) -> np.ndarray:
    """J_axis = (1/2) sum_k sigma_axis^(k). Returned array is read-only."""
    check_axis(axis)
    check_qubits(n_qubits)
    return _collective_cached(axis, n_qubits)


def collective_all(n_qubits: int):
    return tuple(collective_j(l, n_qubits) for l in AXES)


def j_direction(n, n_qubits: int) -> np.ndarray:
    n = check_direction(n)
    ops = collective_all(n_qubits)
    return n[0] * ops[0] + n[1] * ops[1] + n[2] * ops[2]
