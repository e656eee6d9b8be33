"""Quantum Fisher information for collective spin operators.

The central object is the 3x3 matrix M with F_Q[rho, J_n] = n^T M n for any
unit direction n. It is assembled from the spectral decomposition of rho:

    M_ij = 2 sum_{l,m} (lam_l + lam_m) ((lam_l - lam_m)/(lam_l + lam_m))^2
               <l|J_i|m><m|J_j|l>

restricted to eigenvalue pairs with lam_l + lam_m above a rank cutoff.
Pairs where both eigenvalues vanish contribute nothing, and pairs with one
vanishing eigenvalue enter through a completeness identity, so the whole sum
only needs the support eigenvectors:

    M_ij = sum_{l,m in supp} w_lm A_i[l,m] conj(A_j[l,m])
           + 4 Re( sum_l lam_l (<l|J_i J_j|l> - [A_i A_j]_ll) )

with A_i = V^dag J_i V on the support and w_lm = 2 (lam_l - lam_m)^2 /
(lam_l + lam_m). The second term drops out for full-rank states.

White noise has one scale, stated here once. The mix rho = P psi psi^dag +
(1 - P) 1/2^N of states.white_noise_mix has eigenvalue lam = P + f on psi and
f = (1 - P)/2^N on the rest, so only (lam, f) pairs enter the sum and
F_Q[rho, J_n] = s F_Q[psi, J_n] with s = noise_scale(P, N) = P^2 / (P + 2f);
noise_weight_for_scale inverts it. qfi_direction reads such a mix off psi
alone: a floor f at or below the rank cutoff is dropped (s = lam), and lam at
or below it leaves s = 0. qfi_matrix keeps the dense route for such mixes for
now: the benchmark's reference stdout of `analyze` and `landscape noise_line`
on them is pinned by sha256, and the closed form moves their last bits.

Weight 0 is the exception: such a mix (states.completely_mixed among them) is
1/2^N whatever its base, so qfi_matrix, qfi_direction and
collective_variances return zeros, 0.0 and N/4 per axis before any support,
spectrum, rho or J is built. These are the dense route's bits: its eigenvalues
are all 1/2^N, every pair weight is +0.0, and the trace of J_a^2 / 2^N is N/4
exactly.

A pure state reads no dense J. Its J_a psi, and the diagonals of psi psi^dag
J_a and psi psi^dag J_a^2 that collective_variances sums for the criteria's
variance floor, come from slabs of BLOCK rows (or columns, in pairs) of each
operator, written from the table in `collective` into one zeroed buffer per
call and cleared after each block. J psi costs the dense gemv's 3 * 4^N
multiply-adds. The moments take the rows psi[lo:hi] psi^dag two at a time,
each pair 2 x 2^N against the 2^N x 8 block of its two columns of J_x, J_x^2,
J_y and J_y^2, the BLOCK / 2 pairs of a block in one stacked matmul: 8 * 4^N
multiply-adds, against 64 * 4^N for the BLOCK x 2^N by 2^N x 4 BLOCK column
slab this replaced (collective_variances of GHZ_x, in-process medians on a
2-core machine: 20.3 -> 9.2 ms at N = 10, 231 -> 118 ms at N = 12). Any other
state runs the dense J, each built per product and dropped after it (about
1 ms at N = 10), so no 2^N x 2^N operator outlives the call; its moments are
four dense products, 4 * 8^N. Memoizing the three J kept 3 * 16 * 4^N bytes
live during and after every call: peak RSS of white-noise GHZ_x went 641 ->
453 MB for `analyze` at N = 11 and 2468 -> 1705 MB for `depth` at N = 12
when the memo went. A faster mixed route waits on the benchmark's pass-count
tail (ROADMAP item 1; CHANGES.md FOUND lines 29 and 33). Both routes give the
same bits: OpenBLAS sums each entry over all 2^N terms in the same order whatever
the other two sizes of the product, as long as it is at least 2 x 4
(tests/test_qfi.py pins this). A 2 x 2 product takes another kernel and
loses the bits, so all four operators of a pair share one 2 x 8 product.
`variance` serves any other observable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collective import AXES, check_direction, dense, slab_entries
from .errors import NumericalError, ValidationError
from .matcore import require_hermitian
from .states import EPS_RANK, QuantumState, check_rank_cutoff

BLOCK = 16  # rows (or columns) of each operator per slab of the pure route
CLAMP = 1e-10


def _clamp_nonneg(x: float) -> float:
    """Round tiny negative residues up to zero; reject real negativity."""
    if x < -CLAMP:
        raise NumericalError(f"expected a nonnegative quantity, got {x!r}")
    return 0.0 if x < 0.0 else x


@dataclass(frozen=True)
class QfiMatrix:
    """Symmetric 3x3 QFI matrix for the collective spin components."""

    mat: np.ndarray
    imag_residue: float = 0.0

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=float)
        asym = float(np.max(np.abs(mat - mat.T)))
        if asym > 1e-10:
            raise NumericalError(f"QFI matrix asymmetry {asym:.3e} exceeds 1e-10")
        mat = (mat + mat.T) / 2.0
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def fisher_triple(self) -> np.ndarray:
        return np.diag(self.mat).copy()

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.mat)

    @property
    def trace(self) -> float:
        return float(np.trace(self.mat))

    def direction(self, n) -> float:
        n = check_direction(n)
        return _clamp_nonneg(float(n @ self.mat @ n))


def _pure_slabs(ops, n_qubits: int, pairs: bool = False):
    """For each block of BLOCK rows (or columns, in pairs): the slab, a
    zeroed buffer, with the block's entries of `ops` written in, and its first
    index. The entries are cleared again before the next block is written."""
    dim = 2 ** n_qubits
    width = min(BLOCK, dim)
    offsets, values = slab_entries(ops, n_qubits, width, pairs)
    shape = (width // 2, dim, 2 * len(ops)) if pairs else (len(ops) * width, dim)
    slab = np.zeros(shape, dtype=complex)
    flat = slab.reshape(-1).view(float)
    for b, lo in enumerate(range(0, dim, width)):
        flat[offsets[b]] = values[b]
        yield slab, lo
        flat[offsets[b]] = 0.0


def _pure_products(column: np.ndarray, n_qubits: int) -> list:
    """J_x psi, J_y psi, J_z psi for psi a 2^N x 1 column, each 2^N x 1.

    Each product is a row slab of 3 BLOCK rows times the column. OpenBLAS sums
    each output over all 2^N terms in the same order whatever the number of
    rows, from 2 up, so every bit is the dense J @ psi's."""
    out = np.empty((3, column.shape[0], 1), dtype=complex)
    width = min(BLOCK, column.shape[0])
    for slab, lo in _pure_slabs(AXES, n_qubits):
        out[:, lo:lo + width] = (slab @ column).reshape(3, width, 1)
    return list(out)


def qfi_matrix(state: QuantumState, eps_rank: float = EPS_RANK) -> QfiMatrix:
    """Assemble the collective-spin QFI matrix of a state; a diagonal entry
    above N^2 + 1e-6 is a NumericalError.

    A pure state forms J_i psi from row slabs, bit for bit the dense J_i @ psi;
    any other state multiplies its support by each dense J_i, built per
    product and dropped after it. The J_i V blocks are kept only for a
    rank-deficient support, whose completeness term reads them; a full-rank
    support holds one at a time. A white-noise
    mix over a pure base still completes a dense 2^N x 2^N basis here, and is
    the second route the tests hold qfi_direction's closed form to. ROADMAP
    item 2 moves this function onto the same scale once the benchmark's
    reference stdout is recorded again (item 1). A mix of weight 0 is the zero
    matrix, read off the weight."""
    if state.is_completely_mixed:
        check_rank_cutoff(eps_rank)
        return QfiMatrix(mat=np.zeros((3, 3)))
    lam, vs = state.support(eps_rank)
    vh = vs.conj().T
    full_rank = vs.shape[1] == state.dim
    blocks = (_pure_products(vs, state.n_qubits) if state.is_pure
              else (dense(axis, state.n_qubits) @ vs for axis in AXES))
    a, b = [], []
    for bi in blocks:
        a.append(vh @ bi)
        if not full_rank:
            b.append(bi)
        del bi  # before the next block is made
    del vh

    pair_diff = lam[:, None] - lam[None, :]
    w = 2.0 * pair_diff * pair_diff / (lam[:, None] + lam[None, :])
    del pair_diff

    out = np.empty((3, 3), dtype=complex)
    for i in range(3):
        wa = w * a[i]
        for j in range(i, 3):
            val = np.sum(wa * a[j].conj())
            if not full_rank:
                cross = np.einsum("dk,dk->k", b[i].conj(), b[j])
                inside = np.einsum("dk,dk->k", a[i].conj(), a[j])
                val = val + 4.0 * (lam @ (cross - inside)).real
            out[i, j] = val
            out[j, i] = np.conj(val)
    residue = float(np.max(np.abs(out.imag)))
    if residue > 1e-10:
        raise NumericalError(f"QFI matrix imaginary residue {residue:.3e} exceeds 1e-10")
    mat = out.real.copy()
    for i in range(3):
        mat[i, i] = _clamp_nonneg(mat[i, i])
    n2 = float(state.n_qubits ** 2)
    if np.any(np.diag(mat) > n2 + 1e-6):
        raise NumericalError(f"Fisher component exceeds N^2 = {n2}: {np.diag(mat)}")
    return QfiMatrix(mat=mat, imag_residue=residue)


def fisher_triple(state: QuantumState, eps_rank: float = EPS_RANK) -> np.ndarray:
    """(F_Q[rho, J_x], F_Q[rho, J_y], F_Q[rho, J_z])."""
    return qfi_matrix(state, eps_rank).fisher_triple


def qfi_direction(state: QuantumState, n, eps_rank: float = EPS_RANK) -> float:
    """F_Q[rho, J_n] = n^T M n.

    A white-noise mix over a pure base psi is noise_scale(P, N) times the
    base's value, read off its rank-one route: each ordered (lam, f) pair is
    weighted 2 (lam - f)^2 / (lam + f) = 2 P^2 / (P + 2f), and the sum over the
    others of |<psi|J_n|k>|^2 is Var_psi(J_n) = F_Q[psi, J_n] / 4. The cutoff
    applies as QuantumState.support applies it: a floor f <= eps_rank is
    dropped, and the completeness term leaves s = lam; lam <= eps_rank leaves
    0. No spectrum, Householder basis or rho is formed. A mix of weight 0 is
    0.0. Any other state runs qfi_matrix.
    """
    if state.is_completely_mixed:
        check_direction(n)
        check_rank_cutoff(eps_rank)
        return 0.0
    base, p = state.noise or (state, None)
    if p is None or not base.is_pure:
        return qfi_matrix(state, eps_rank).direction(n)
    pure = qfi_matrix(base, eps_rank).direction(n)
    floor = (1.0 - p) / state.dim
    if p + floor <= eps_rank:
        return 0.0
    if floor <= eps_rank:
        return (p + floor) * pure
    return noise_scale(p, state.n_qubits) * pure


def noise_scale(p: float, n_qubits: int) -> float:
    """s = P^2 / (P + 2f), f = (1 - P)/2^N: the QFI-matrix scale factor of
    mixing a pure state with white noise of weight p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"noise weight p={p} out of [0, 1]")
    return p * p / (p + 2.0 * ((1.0 - p) * 0.5 ** n_qubits))


def noise_weight_for_scale(s: float, n_qubits: int) -> float:
    """Inverse of noise_scale on [0, 1]: the root p of p^2 = s (p + (1 - p) c),
    c = 2f / (1 - P) = 2^(1 - N)."""
    if not 0.0 <= s <= 1.0 + 1e-12:
        raise ValidationError(f"scale {s} out of [0, 1]")
    s = min(s, 1.0)
    c = 2.0 ** (-(n_qubits - 1))
    return (s * (1.0 - c) + math.sqrt(s * s * (1.0 - c) ** 2 + 4.0 * s * c)) / 2.0


def variance(state: QuantumState, a) -> float:
    """<a^2> - <a>^2 for a Hermitian observable."""
    a = require_hermitian(a)
    if a.shape[0] != state.dim:
        raise ValidationError(f"operator dim {a.shape[0]} does not match state dim {state.dim}")
    mean = state.expectation(a).real
    second = state.expectation(a @ a).real
    return _clamp_nonneg(second - mean * mean)


def collective_variances(state: QuantumState) -> tuple:
    """((Delta J_x)^2, (Delta J_y)^2, (Delta J_z)^2), bit for bit what
    `variance` gives for each J.

    Only the diagonals of rho J_a and rho J_a^2 are formed. A pure state
    takes BLOCK rows psi[lo:hi] psi^dag at a time, two by two: rows i and
    i + 1 against columns i and i + 1 of J_x, J_x^2, J_y and J_y^2, one 2 x 8
    product per pair and one stacked matmul per block, keeping the 8 diagonal
    entries of each. OpenBLAS sums each entry over all 2^N terms in the same
    order whatever the other two sizes, so the bits are the dense products'.
    Any other state runs rho against the dense J and J^2, each built for its
    product and dropped after it. J_z is diagonal, so (rho J_z)_ii is
    rho_ii jz_i rounded once, and numpy sums a diagonal in the same order as
    the trace. A mix of weight 0 is N/4 on
    every axis, read off the weight."""
    n, dim = state.n_qubits, state.dim
    if state.is_completely_mixed:
        return (n / 4,) * 3
    psi = state.vector
    if psi is None:
        rho = state.rho
        diag = np.diagonal(rho).copy()
        moments = [np.diagonal(rho @ dense(op, n)).copy() for op in ("x", "xx", "y", "yy")]
    else:
        bra, width = psi.conj(), min(BLOCK, dim)
        rows, parts = np.empty((width, dim), dtype=complex), []
        for slab, lo in _pure_slabs(("x", "xx", "y", "yy"), n, pairs=True):
            np.multiply(psi[lo:lo + width, None], bra, out=rows)  # np.outer, into one buffer
            # entry (p, r, 2q + r) is row and column lo + 2p + r of rho J_q
            prod = (rows.reshape(width // 2, 2, dim) @ slab).reshape(width // 2, 2, 4, 2)
            ends = np.diagonal(prod, axis1=1, axis2=3).transpose(1, 0, 2).reshape(4, width)
            parts.append([np.diagonal(rows[:, lo:lo + width]).copy(), *ends])
        diag, *moments = (np.concatenate(p) for p in zip(*parts))
    out = []
    for first, second in (moments[:2], moments[2:]):
        mean = complex(first.sum()).real
        out.append(_clamp_nonneg(complex(second.sum()).real - mean * mean))
    jz = n / 2 - np.bitwise_count(np.arange(dim))
    mean = complex((diag * jz).sum()).real
    second = complex((diag * (jz * jz)).sum()).real
    out.append(_clamp_nonneg(second - mean * mean))
    return tuple(out)


def skew_information(state: QuantumState, a, eps_rank: float = EPS_RANK) -> float:
    """<a^2> - trace(sqrt(rho) a sqrt(rho) a), from the spectral decomposition."""
    a = require_hermitian(a)
    if a.shape[0] != state.dim:
        raise ValidationError(f"operator dim {a.shape[0]} does not match state dim {state.dim}")
    lam, vs = state.support(eps_rank)
    asup = vs.conj().T @ a @ vs
    root = np.sqrt(lam)
    cross = float(np.einsum("l,m,lm,ml->", root, root, asup, asup).real)
    second = state.expectation(a @ a).real
    return _clamp_nonneg(second - cross)
