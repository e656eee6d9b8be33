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

A pure state takes one of two routes, split at DENSE_PURE_MAX qubits (its
comment gives the reasons). Above it, J_a psi comes from the operator table
in `collective` (direction_terms and apply_terms) at O(N 2^N), and no
2^N x 2^N array is formed: qfi_matrix reads 4 (Re<J_i psi|J_j psi> -
<J_i><J_j>) through the completeness term above, and collective_variances
Var(J_a) = ||J_a psi||^2 - (Re<psi|J_a psi>)^2 for x and y. At or below it,
a pure state takes the mixed states' dense route with rho = psi psi^dag formed
in the call, so the state's own rho stays unbuilt. That route multiplies by
the dense J, each built per product and dropped after it (about 1 ms at
N = 10), so no 2^N x 2^N operator outlives the call; its moments are four
dense products, 4 * 8^N. Memoizing the three J kept 3 * 16 * 4^N bytes live
during and after every call: peak RSS of white-noise GHZ_x went 641 -> 453 MB
for `analyze` at N = 11 and 2468 -> 1705 MB for `depth` at N = 12 when the
memo went. A faster mixed route waits on the benchmark's pass-count tail
(ROADMAP item 1; CHANGES.md FOUND lines 29 and 33). J_z is diagonal, so its
moments are sums over the diagonal of rho (|psi_i|^2 for a pure state) on
either route. `variance` serves any other observable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collective import AXES, apply_terms, check_direction, dense, direction_terms
from .errors import NumericalError, ValidationError
from .matcore import require_hermitian
from .states import EPS_RANK, QuantumState, check_rank_cutoff

# Pure states on at most this many qubits take the dense route, larger ones
# the operator table. Two reasons. Up to here the dense J psi is the faster
# (the three products, best of 50 on a 2-core host: 53 us dense against 109 us
# from the table at N = 6, 113 against 127 us at N = 7, 262 against 157 us at
# N = 8). And only the dense route gives the bits that the benchmark's
# reference stdout pins by sha256 at N = 4 and 6: the table moves the ~1e-32
# QFI entries of Dicke_x(6) and the ~1e-17 off-diagonal ones of
# excited-Dicke_y(6). The cost is in the moments, four dense products:
# collective_variances of GHZ_x takes 0.20 and 0.30 ms at N = 4 and 6, where
# the row slabs that both routes replaced took 0.04 and 0.12 ms; no benchmark
# workload resolves that, as a `cli_cold` op takes about 230 ms. Once that
# stdout is recorded again (ROADMAP item 1) the table can take every pure
# state and this constant goes.
DENSE_PURE_MAX = 6
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


def _table_j(axis: str, a: np.ndarray, n_qubits: int) -> np.ndarray:
    """J_axis a for a vector or the columns of a matrix a, from the operator
    table at O(N 2^N) per column."""
    return apply_terms(direction_terms(np.eye(3)[AXES.index(axis)], n_qubits), a)


def qfi_matrix(state: QuantumState, eps_rank: float = EPS_RANK) -> QfiMatrix:
    """Assemble the collective-spin QFI matrix of a state; a diagonal entry
    above N^2 + 1e-6 is a NumericalError.

    A pure state above DENSE_PURE_MAX qubits forms J_i psi from the operator
    table; any other state multiplies its support by each dense J_i, built per
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
    n = state.n_qubits
    lam, vs = state.support(eps_rank)
    vh = vs.conj().T
    full_rank = vs.shape[1] == state.dim
    table = state.is_pure and n > DENSE_PURE_MAX
    blocks = (_table_j(axis, vs, n) if table else dense(axis, n) @ vs for axis in AXES)
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
    n2 = float(n ** 2)
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
    """((Delta J_x)^2, (Delta J_y)^2, (Delta J_z)^2).

    A pure state above DENSE_PURE_MAX qubits reads J_x psi and J_y psi off the
    operator table: <J_a> = Re<psi|J_a psi> and <J_a^2> = ||J_a psi||^2.
    Any other state forms only the diagonals of rho J_a and rho J_a^2, against
    the dense J and J^2, each built for its product and dropped after it; a
    pure one takes rho = psi psi^dag for the call, leaving its own rho unbuilt.
    On that route the result is bit for bit what `variance` gives for each J:
    J_z is diagonal, so (rho J_z)_ii is rho_ii jz_i rounded once, and numpy
    sums a diagonal in the same order as the trace. A mix of weight 0 is N/4
    on every axis, read off the weight."""
    n, dim = state.n_qubits, state.dim
    if state.is_completely_mixed:
        return (n / 4,) * 3
    psi = state.vector
    if psi is not None and n > DENSE_PURE_MAX:
        bra = psi.conj()
        diag, moments = psi * bra, []
        for axis in ("x", "y"):
            jpsi = _table_j(axis, psi, n)
            moments += [bra * jpsi, jpsi.conj() * jpsi]
    else:
        rho = state.rho if psi is None else np.outer(psi, psi.conj())
        diag = np.diagonal(rho).copy()
        moments = [np.diagonal(rho @ dense(op, n)).copy() for op in ("x", "xx", "y", "yy")]
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
