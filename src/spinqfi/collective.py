"""Collective spin operators J_l = (1/2) sum_k sigma_l^(k).

Site 1 is the most significant tensor factor throughout the package, which
fixes bitstring conventions for the Dicke constructors and the file format.
One table, _entries, states every nonzero entry of J_x, J_y, J_z, J_x^2 and
J_y^2 once. It writes the dense 2^N x 2^N J and J^2 of the mixed-state route
(`dense`, fresh per call: that route builds each one for its product and
drops it after; collective_j memoizes a read-only J per (axis, N) for other
callers, such as j_direction's N = 1 operators), the offsets and values that
the pure-state route writes into its slabs (slab_entries), and the bit-flip
terms of J_n that the interferometer applies to a rotated state
(direction_terms). The slabs hold
rows of J_x, J_y, J_z for J psi, and for the moments columns of J_x, J_x^2,
J_y, J_y^2 two at a time, so that each pair of rows of psi psi^dag meets its
2^N x 8 block in one 2 x 8 product: 8 4^N multiply-adds, where 16 columns side
by side took 64 4^N (collective_variances of GHZ_x at N = 10 and 12: 20.3 and
231 ms before, 9.2 and 118 ms after; see `qfi`).
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


@lru_cache(maxsize=8)
def slab_entries(ops: tuple, n_qubits: int, width: int, pairs: bool = False):
    """Where the table's entries of `ops` fall in a slab of `width` rows of
    each operator stacked, a C-contiguous (len(ops) width) x 2^N complex array;
    or, with `pairs`, of `width` columns two at a time, a stack of width / 2
    arrays 2^N x (2 len(ops)), array p holding the block's columns 2p and
    2p + 1 of each operator side by side. Returns (offsets, values), each
    (2^N / width) x count: row b holds the float64 offsets into the slab's
    real view, and their values, for rows (or columns) b width ...
    (b + 1) width - 1 of each operator. Column c of a Hermitian operator is
    the conjugate of row c. width divides 2^N. The pair is memoized
    read-only: 16 bytes per entry, (2N + 1) 2^N entries for AXES and
    (N^2 + N + 2) 2^N for x, xx, y, yy, 10 MB at N = 12."""
    check_qubits(n_qubits)
    dim = 2 ** n_qubits
    blocks = dim // width
    anchors = np.arange(dim)
    slot = anchors % width
    count = sum(partner.size  # entries per row (or column)
                for op in ops for partner, _, _ in _entries(op, n_qubits, anchors[:1]))
    offsets = np.empty((blocks, count * width), dtype=np.intp)
    values = np.empty((blocks, count * width))
    at = 0
    for q, op in enumerate(ops):
        for partner, part, vals in _entries(op, n_qubits, anchors):
            partner, vals = np.broadcast_arrays(partner, vals)
            if pairs:
                cell = (slot // 2 * dim + partner) * (2 * len(ops)) + 2 * q + slot % 2
                flat = 2 * cell + part
                vals = -vals if part else vals
            else:
                flat = (q * width + slot) * (2 * dim) + 2 * partner + part
            step = flat.size // blocks
            for arr, out in ((flat, offsets), (vals, values)):
                out[:, at:at + step].reshape(blocks, -1, width)[...] = \
                    arr.reshape(-1, blocks, width).transpose(1, 0, 2)
            at += step
    return _readonly(offsets), _readonly(values)


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


def collective_all(n_qubits: int):
    return tuple(collective_j(l, n_qubits) for l in AXES)


def j_direction(n, n_qubits: int) -> np.ndarray:
    n = check_direction(n)
    ops = collective_all(n_qubits)
    return n[0] * ops[0] + n[1] * ops[1] + n[2] * ops[2]
