"""Independent oracle and random-state generators for the test suite.

Everything here is built from raw numpy so expected values never share a
code path with the package: own Pauli matrices, own Kronecker chains, own
eigendecomposition, and the literal double-sum form of the QFI matrix.
"""
import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
PAULI = {"x": SX, "y": SY, "z": SZ}


def kron_chain(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def collective_op(axis: str, n: int) -> np.ndarray:
    dim = 2 ** n
    total = np.zeros((dim, dim), dtype=complex)
    for site in range(n):
        factors = [I2] * n
        factors[site] = PAULI[axis]
        total += kron_chain(factors)
    return 0.5 * total


def gamma_reference(rho: np.ndarray, n: int, eps: float = 1e-12) -> np.ndarray:
    """QFI matrix by the literal double sum over the full eigensystem."""
    lam, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    ops = [collective_op(a, n) for a in "xyz"]
    elems = [vecs.conj().T @ op @ vecs for op in ops]
    dim = rho.shape[0]
    out = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            acc = 0.0 + 0j
            for l in range(dim):
                for m in range(dim):
                    s = lam[l] + lam[m]
                    if s <= eps:
                        continue
                    d = lam[l] - lam[m]
                    acc += 2.0 * s * (d / s) ** 2 * elems[i][l, m] * elems[j][m, l]
            out[i, j] = acc
    return out.real


def qfi_reference(rho: np.ndarray, n: int, direction) -> float:
    g = gamma_reference(rho, n)
    d = np.asarray(direction, dtype=float)
    return float(d @ g @ d)


def variance_reference(rho: np.ndarray, op: np.ndarray) -> float:
    mean = np.trace(rho @ op).real
    return float(np.trace(rho @ op @ op).real - mean ** 2)


# ---------------------------------------------------------------- generators

def haar_ket(dim: int, rng) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def ghz_ket(n: int) -> np.ndarray:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    v = np.zeros(2 ** n, dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return v


def one_axis_twisted(n: int, mu: float) -> np.ndarray:
    """Density matrix of exp(-i mu J_z^2) |+x>^N."""
    jz = np.diag(collective_op("z", n)).real
    v = np.exp(-1j * mu * jz ** 2) / np.sqrt(2 ** n)
    return np.outer(v, v.conj())


def haar_pure(n: int, rng) -> np.ndarray:
    """Density matrix of a Haar-random N-qubit pure state."""
    v = haar_ket(2 ** n, rng)
    return np.outer(v, v.conj())


def ginibre_mixed(n: int, rng, rank=None) -> np.ndarray:
    dim = 2 ** n
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def product_ket(n: int, rng) -> np.ndarray:
    return kron_chain([haar_ket(2, rng) for _ in range(n)]).ravel()


def separable_mixture(n: int, rng, terms: int = 4) -> np.ndarray:
    """Convex mixture of random product pure states."""
    w = rng.dirichlet(np.ones(terms))
    dim = 2 ** n
    rho = np.zeros((dim, dim), dtype=complex)
    for t in range(terms):
        v = product_ket(n, rng)
        rho += w[t] * np.outer(v, v.conj())
    return rho


def random_partition(n: int, k: int, rng):
    """Random ordered partition of n with every part <= k."""
    parts = []
    left = n
    while left > 0:
        size = int(rng.integers(1, min(k, left) + 1))
        parts.append(size)
        left -= size
    return parts


def kproducible_mixture(n: int, k: int, rng, terms: int = 3) -> np.ndarray:
    """Mixture of pure states that factor into blocks of at most k qubits."""
    w = rng.dirichlet(np.ones(terms))
    dim = 2 ** n
    rho = np.zeros((dim, dim), dtype=complex)
    for t in range(terms):
        kets = [haar_ket(2 ** size, rng) for size in random_partition(n, k, rng)]
        v = kron_chain(kets).ravel()
        rho += w[t] * np.outer(v, v.conj())
    return rho


def random_direction(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_projective_measurement(dim: int, rng):
    """A random orthonormal basis; each column is one rank-1 outcome."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(g)
    return q


# ---------------------------------------------------------------- projectors

def parity_projectors(axis: str, n: int):
    """[P_-1, P_+1] of sigma_axis^(x n), from the Kronecker chain."""
    word = kron_chain([PAULI[axis]] * n)
    eye = np.eye(2 ** n)
    return [(eye - word) / 2, (eye + word) / 2]


def collective_projectors(direction, n: int):
    """Eigenprojectors of J_n in ascending order of eigenvalue."""
    gen = sum(d * collective_op(axis, n) for d, axis in zip(direction, "xyz"))
    vals, vecs = np.linalg.eigh(gen)
    levels = np.round(2 * vals).astype(int)  # eigenvalues are m - n/2
    out = []
    for level in np.unique(levels):
        cols = vecs[:, levels == level]
        out.append(cols @ cols.conj().T)
    return out


def computational_projectors(n: int):
    return [np.diag(row).astype(complex) for row in np.eye(2 ** n)]
