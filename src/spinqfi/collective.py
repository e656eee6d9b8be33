"""Collective spin operators J_l = (1/2) sum_k sigma_l^(k).

Site 1 is the most significant tensor factor throughout the package, which
fixes bitstring conventions for the Dicke constructors and the file format.
One table, _entries, states every nonzero entry of J_x, J_y, J_z, J_x^2 and
J_y^2 once. It writes the dense 2^N x 2^N J and J^2 (`dense`, fresh per call:
the mixed-state route, and the pure-state route at N <= qfi.DENSE_PURE_MAX,
build each one for its product and drop it after; collective_j memoizes a
read-only J per (axis, N) for other callers, such as j_direction's N = 1
operators), and the bit-flip terms of J_n (direction_terms), which
apply_terms applies to a vector or to the columns of a matrix at O(N 2^N)
per column: the pure-state route above that size forms J psi this way, and
the interferometer J_n times a rotated state.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .matcore import check_qubits

AXES = ("x", "y", "z")
OPERATORS = AXES + ("xx", "yy")  # the table's J_x, J_y, J_z, J_x^2, J_y^2

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


def _entries(op: str, n_qubits: int, rows: np.ndarray):
    """The one table of operator entries: the nonzero entries of rows `rows`
    of J_x, J_y, J_z (op "x", "y", "z") or J_x^2, J_y^2 ("xx", "yy"), as
    (columns, part, values) triples that broadcast against rows, part 0 the
    real half and 1 the imaginary one; every other entry is +0.0.

    sigma_x and sigma_y flip one bit s of the index i; sigma_y's entry is -i
    where bit s of i is 0 and +i where it is 1. J_z is diagonal,
    (N - 2 popcount(i)) / 2. J_a^2 = N/4 + (1/2) sum_{s<t} sigma_a^(s)
    sigma_a^(t): the pair term at (i, i XOR (2^s | 2^t)) is 1/2 for x and, for
    y, -1/2 where bits s and t of i agree and +1/2 where they differ. Every
    entry of the matmul J_a @ J_a sums multiples of 1/4 exactly, so it holds
    these same bits, +0.0 zeros included."""
    if op == "z":
        return [(rows, 0, n_qubits / 2 - np.bitwise_count(rows))]
    if op in ("x", "y"):
        s = np.arange(n_qubits)[:, None]
        flipped = rows ^ (1 << s)
        if op == "x":
            return [(flipped, 0, 0.5)]
        return [(flipped, 1, np.where(rows >> s & 1, 0.5, -0.5))]
    s, t = (b[:, None] for b in np.triu_indices(n_qubits, 1))  # one row per pair s < t
    flipped = rows ^ (1 << s | 1 << t)
    pair = 0.5 if op == "xx" else np.where((rows >> s ^ rows >> t) & 1, 0.5, -0.5)
    return [(rows, 0, n_qubits / 4), (flipped, 0, pair)]


def dense(op: str, n_qubits: int) -> np.ndarray:
    """A fresh 2^N x 2^N array of one operator of the table, op one of OPERATORS."""
    if op not in OPERATORS:
        raise ValidationError(f"operator must be one of {OPERATORS}, got {op!r}")
    check_qubits(n_qubits)
    idx = np.arange(2 ** n_qubits)
    out = np.zeros((idx.size, idx.size), dtype=complex)
    for cols, part, values in _entries(op, n_qubits, idx):
        (out.real, out.imag)[part][idx, cols] = values
    return out


@lru_cache(maxsize=24)
def _collective_cached(axis: str, n_qubits: int) -> np.ndarray:
    return _readonly(dense(axis, n_qubits))


def collective_j(axis: str, n_qubits: int) -> np.ndarray:
    """J_axis = (1/2) sum_k sigma_axis^(k). Returned array is read-only."""
    check_axis(axis)
    check_qubits(n_qubits)
    return _collective_cached(axis, n_qubits)


def direction_terms(n, n_qubits: int) -> list:
    """J_n = n_x J_x + n_y J_y + n_z J_z read off the table as (columns,
    values) pairs of 2^N entries each: (J_n a)_i is the sum over pairs of
    values[i] a[columns[i]], for a vector or the rows of a matrix a. One pair
    per flipped bit of each nonzero component and one for J_z's diagonal, so
    J_n a costs O(N 2^N) per column of a."""
    rows = np.arange(2 ** n_qubits)
    pairs = []
    for weight, axis in zip(check_direction(n), AXES):
        if weight:
            for cols, part, values in _entries(axis, n_qubits, rows):
                cols, values = np.broadcast_arrays(cols, weight * (1j if part else 1.0) * values)
                pairs += zip(cols.reshape(-1, rows.size), values.reshape(-1, rows.size))
    return pairs


def apply_terms(terms: list, a: np.ndarray) -> np.ndarray:
    """J a for a vector or matrix a, J given by direction_terms."""
    pad = (1,) * (a.ndim - 1)
    return sum(values.reshape(values.shape + pad) * a[cols] for cols, values in terms)


def collective_all(n_qubits: int):
    return tuple(collective_j(l, n_qubits) for l in AXES)


def j_direction(n, n_qubits: int) -> np.ndarray:
    n = check_direction(n)
    ops = collective_all(n_qubits)
    return n[0] * ops[0] + n[1] * ops[1] + n[2] * ops[2]
