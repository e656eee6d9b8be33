"""Second routes to the numbers the benchmark checks.

Everything here uses numpy and the standard library only, never spinqfi, so a
defect in the library cannot hide by agreeing with itself:

* collective operators built from explicit Kronecker products,
* the literal QFI double sum over the eigendecomposition of rho,
* the central-difference classical Fisher information of a measurement basis,
* closed forms: GHZ (N, N, N^2), balanced Dicke N(N+2)/2, polarized product
  states N(1 - c_l^2), and the white-noise scale factor.

Conventions follow spinqfi's documented ones: qubit 0 is the most significant
bit, J_l is half the sum of single-site Paulis, and the x / y basis
rotations are the per-qubit unitaries the state constructors document.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
BASIS_ROTATION = {
    "x": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "y": np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2),
}
AXES = ("x", "y", "z")


@lru_cache(maxsize=None)
def collective(axis: str, n: int) -> np.ndarray:
    dim = 2 ** n
    total = np.zeros((dim, dim), dtype=complex)
    for site in range(n):
        op = np.eye(1, dtype=complex)
        for k in range(n):
            op = np.kron(op, SIGMA[axis] if k == site else np.eye(2))
        total += op
    return total / 2.0


def rotate(psi: np.ndarray, basis: str, n: int) -> np.ndarray:
    if basis == "z":
        return psi
    u = np.eye(1, dtype=complex)
    for _ in range(n):
        u = np.kron(u, BASIS_ROTATION[basis])
    return u @ psi


def dicke_vector(n: int, m: int, basis: str = "z") -> np.ndarray:
    v = np.array([1.0 if bin(i).count("1") == m else 0.0 for i in range(2 ** n)],
                 dtype=complex)
    return rotate(v / np.linalg.norm(v), basis, n)


def excited_dicke_vector(n: int) -> np.ndarray:
    return np.kron(np.array([0.0, 1.0], dtype=complex), dicke_vector(n - 1, n // 2 - 1))


def dicke_superposition_vector(alpha, n: int) -> np.ndarray:
    v = sum(a * dicke_vector(n, n // 2, b) for a, b in zip(alpha, AXES))
    return v / np.linalg.norm(v)


def pure_triple(psi: np.ndarray, n: int) -> np.ndarray:
    """4 Var(J_l) for l = x, y, z."""
    out = []
    for axis in AXES:
        jpsi = collective(axis, n) @ psi
        mean = np.vdot(psi, jpsi).real
        out.append(4.0 * (np.vdot(jpsi, jpsi).real - mean * mean))
    return np.array(out)


def qfi_matrix(rho: np.ndarray, n: int, eps: float = 1e-12) -> np.ndarray:
    """M_ij = 2 sum_{l,m} (lam_l - lam_m)^2 / (lam_l + lam_m) Re(A_i[l,m] A_j[m,l])."""
    lam, vecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    a = [vecs.conj().T @ collective(axis, n) @ vecs for axis in AXES]
    psum = lam[:, None] + lam[None, :]
    keep = psum > eps
    w = np.zeros_like(psum)
    w[keep] = 2.0 * (lam[:, None] - lam[None, :])[keep] ** 2 / psum[keep]
    out = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            out[i, j] = float(np.sum(w * (a[i] * a[j].T)).real)
    return out


def noise_scale(p: float, n: int) -> float:
    c = 2.0 ** (-(n - 1))
    return p * p / (p + (1.0 - p) * c)


def ghz_triple(n: int, basis: str) -> np.ndarray:
    t = np.full(3, float(n))
    t[AXES.index(basis)] = float(n * n)
    return t


def dicke_triple(n: int, m: int, basis: str) -> np.ndarray:
    """Dicke state with m excitations along `basis`: 0 on that axis and
    2(j(j+1) - m_z^2) on the other two; N(N+2)/2 when balanced."""
    t = np.full(3, spin_component_fisher(n, m))
    t[AXES.index(basis)] = 0.0
    return t


def product_triple(c, n: int) -> np.ndarray:
    return n * (1.0 - np.asarray(c, dtype=float) ** 2)


def spin_component_fisher(n: int, m: int) -> float:
    """F_Q[J_x] of the z-basis Dicke state with m excitations: 2(j(j+1) - m_z^2)."""
    j = n / 2.0
    mz = j - m
    return 2.0 * (j * (j + 1.0) - mz * mz)


def direction_vector(label: str) -> np.ndarray:
    return {"x": np.array([1.0, 0, 0]), "y": np.array([0, 1.0, 0]),
            "z": np.array([0, 0, 1.0])}[label]


def _unitary(n: int, direction, theta: float) -> np.ndarray:
    jn = sum(d * collective(axis, n) for d, axis in zip(direction, AXES))
    lam, vecs = np.linalg.eigh(jn)
    return (vecs * np.exp(-1j * theta * lam)) @ vecs.conj().T


def random_basis(dim: int, seed: int) -> np.ndarray:
    """The Haar-like basis the CLI's `random` measurement draws from its seed."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    basis, _ = np.linalg.qr(g)
    return basis


def classical_fisher_basis(psi: np.ndarray, n: int, direction, theta: float,
                           basis: np.ndarray, h: float = 1e-4,
                           p_floor: float = 1e-12) -> float:
    """Central-difference classical Fisher information of a rank-1 basis
    measurement on exp(-i theta J_n)|psi>."""
    def probs(t):
        amp = basis.conj().T @ (_unitary(n, direction, t) @ psi)
        return np.abs(amp) ** 2

    p_mid = probs(theta)
    dp = (probs(theta + h) - probs(theta - h)) / (2.0 * h)
    keep = p_mid >= p_floor
    return float(np.sum(dp[keep] ** 2 / p_mid[keep]))


def random_mixture(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """rho = sum_k w_k |psi_k><psi_k| over `count` random pure states, so its
    rank is min(count, 2^N)."""
    dim = 2 ** n
    vecs = rng.normal(size=(dim, count)) + 1j * rng.normal(size=(dim, count))
    vecs /= np.linalg.norm(vecs, axis=0)
    w = rng.dirichlet(np.ones(count))
    rho = (vecs * w) @ vecs.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real
