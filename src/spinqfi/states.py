"""State families and the declarative StateSpec they serialize to.

All constructors return an immutable QuantumState and refuse a register above
matcore.DIM_CAP before they allocate; from_spec alone applies a caller's lower
cap. A pure state holds its vector. A white-noise mix is the one noise model of
the package, p rho + (1 - p) 1/2^N: it holds its pure or dense base and one
weight p, the product of every weight applied to that base, so a mix of a mix
multiplies its weight in. Both build a dense rho only when first asked.
completely_mixed is such a mix of weight 0 over |0...0>, and any mix of weight
0 is 1/2^N whatever its base (QuantumState.is_completely_mixed): qfi reads F = 0
and Var(J_a) = N/4 off the weight, so nothing dense is built for it. raw_matrix,
mix and evolved mixed states hold their density matrix. A pure state's spectral
decomposition is completed analytically (rank one) instead of running a full
eigendecomposition of a 2^N matrix.
"""
from __future__ import annotations

import inspect
import math
import sys
import threading
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .collective import check_direction, j_direction
from .errors import SpecError, ValidationError
from .matcore import (DIM_CAP, SpectralDecomposition, check_qubits, eigh,
                      hermiticity_residue, require_hermitian)

# Per-qubit unitaries taking sigma_z eigenvectors to sigma_x / sigma_y ones.
# Any conjugating choice works; correctness is pinned by the coordinate
# permutation tests, not by these entries.
BASIS_ROTATION = {
    "x": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "y": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
}
EPS_RANK = 1e-12  # the rank cutoff: eigenvalues at or below it count as zero
# A balanced-Dicke superposition this small relative to |alpha| counts as zero;
# the least nonzero Gram eigenvalue under the cap is 0.375.
VANISHING_NORM = 1e-6


def _expect(ok: bool, what: str, value) -> None:
    if not ok:
        raise SpecError(f"expected {what}, got {value!r}")


def _integer(value) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), "an integer", value)
    return value


def _real(value) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max, "a finite number", value)
    return float(value)


def _string(value) -> str:
    _expect(isinstance(value, str), "a string", value)
    return value


def _complex(value) -> complex:
    _expect(isinstance(value, list) and len(value) == 2, "a [re, im] pair", value)
    return complex(_real(value[0]), _real(value[1]))


def _list_of(item, length=None):
    def decode(value) -> tuple:
        _expect(isinstance(value, list) and length in (None, len(value)),
                "a list" if length is None else f"a list of {length}", value)
        return tuple(item(v) for v in value)
    return decode


def _matrix(value) -> tuple:
    rows = _list_of(_list_of(_complex))(value)
    if any(len(row) != len(rows) for row in rows):
        raise SpecError("expected a square matrix")
    return rows


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def _complex_token(values) -> str:
    return "/".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in values)


class _Codec(NamedTuple):
    decode: Callable   # JSON value -> field value; raises SpecError
    encode: Callable   # field value -> JSON value
    token: Callable    # field value -> point-label token, or None for no token


_CODECS = {
    "n_qubits": _Codec(_integer, int, lambda v: f"n={v}"),
    "basis": _Codec(_string, str, lambda v: f"basis={v}"),
    "m": _Codec(_integer, int, lambda v: f"m={v}"),
    "c": _Codec(_list_of(_real, 3), lambda v: [float(x) for x in v],
                lambda v: "c=" + "/".join(f"{x:.17g}" for x in v)),
    "coeffs": _Codec(_list_of(_complex), _pairs, lambda v: "coeffs=" + _complex_token(v)),
    "alpha": _Codec(_list_of(_complex, 3), _pairs, lambda v: "alpha=" + _complex_token(v)),
    "p": _Codec(_real, float, lambda v: f"p={v:.17g}"),
    # to_dict and label walk the inner chain themselves, without recursion
    "inner": _Codec(lambda v: StateSpec.from_dict(v), None, None),
    "matrix": _Codec(_matrix, lambda v: [_pairs(row) for row in v], lambda v: None),
}


@dataclass(frozen=True)
class StateSpec:
    """Declarative description of a state family, serializable to JSON.

    KIND_FIELDS says which fields each kind takes; the others stay None.
    """

    kind: str
    n_qubits: Optional[int] = None
    basis: str = "z"
    m: Optional[int] = None
    c: Optional[tuple] = None
    coeffs: Optional[tuple] = None
    alpha: Optional[tuple] = None
    p: Optional[float] = None
    inner: Optional["StateSpec"] = None
    matrix: Optional[tuple] = None

    def _chain(self):
        """This spec and its inner specs, outermost first, each with the
        (name, value) of its kind's fields other than inner that are set, in
        field order."""
        spec = self
        while spec is not None:
            taken = KIND_FIELDS.get(spec.kind, ())
            yield spec, [(f.name, getattr(spec, f.name)) for f in fields(spec) if f.name in taken
                         and f.name != "inner" and getattr(spec, f.name) is not None]
            spec = spec.inner if "inner" in taken else None

    def to_dict(self) -> dict:
        root = doc = {}
        for spec, named in self._chain():
            if doc:
                doc["inner"] = doc = {}  # inner is the last field of its kind
            doc["kind"] = spec.kind
            for name, value in named:
                doc[name] = _CODECS[name].encode(value)
        return root

    def label(self) -> str:
        """Compact single-token state descriptor for point-cloud rows."""
        heads = []
        for spec, named in self._chain():
            tokens = [_CODECS[name].token(value) for name, value in named]
            heads.append(" ".join([spec.kind] + [t for t in tokens if t is not None]))
        return " inner=(".join(heads) + ")" * (len(heads) - 1)

    @staticmethod
    def from_dict(doc) -> "StateSpec":
        """Parse a JSON document; integers must be JSON integers and reals
        finite JSON numbers (bools are neither). Raises SpecError."""
        if not isinstance(doc, dict):
            raise SpecError(f"state spec must be an object, got {type(doc).__name__}")
        kind = doc.get("kind")
        if not isinstance(kind, str):
            raise SpecError("state spec is missing a string 'kind' field")
        if kind not in KIND_FIELDS:
            raise SpecError(f"unknown state kind {kind!r}; expected one of "
                            f"{sorted(KNOWN_KINDS)}")
        unknown = set(doc) - {"kind", *KIND_FIELDS[kind]}
        if unknown:
            raise SpecError(f"unknown spec fields for kind {kind!r}: {sorted(unknown)}")
        values = {}
        for name in KIND_FIELDS[kind]:
            if name in doc:
                try:
                    values[name] = _CODECS[name].decode(doc[name])
                except SpecError as exc:
                    raise SpecError(f"field {name!r}: {exc}") from None
        return StateSpec(kind, **values)


class QuantumState:
    """An N-qubit state: a pure state holds its `vector`, a white-noise mix
    `noise` = (base, p), and any other state its density matrix `rho`.

    Instances are immutable. The rho of a pure state or a mix is built on
    first use, and the spectrum at most once, both under a per-instance
    reentrant lock: the spectrum of a dense state reads rho while holding it.
    """

    __slots__ = ("n_qubits", "spec", "herm_residue", "noise", "_rho", "_vector",
                 "_spectrum", "_lock")

    def __init__(self, rho, n_qubits: int, *, vector=None, noise=None,
                 spectrum=None, spec=None, herm_residue=0.0):
        self.n_qubits = int(n_qubits)
        self.spec = spec
        self.herm_residue = float(herm_residue)
        self.noise = noise
        self._rho = None if rho is None else _frozen(rho)
        self._vector = vector
        self._spectrum = spectrum
        self._lock = threading.RLock()

    @property
    def rho(self) -> np.ndarray:
        with self._lock:
            if self._rho is None:
                base, p = self.noise or (self, None)  # not base.rho: it would cache a copy
                rho = np.outer(base.vector, base.vector.conj()) if base.is_pure else base.rho
                if p is not None:
                    rho = p * rho + (1.0 - p) * np.eye(self.dim) / self.dim
                self._rho = _frozen(rho)
            return self._rho

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    @property
    def is_pure(self) -> bool:
        return self._vector is not None

    @property
    def is_completely_mixed(self) -> bool:
        """A white-noise mix of weight exactly 0, which is 1/2^N whatever its
        base; a chain whose weights multiply (or underflow) to 0.0 is one too."""
        return self.noise is not None and self.noise[1] == 0.0

    @property
    def vector(self) -> Optional[np.ndarray]:
        return self._vector

    @property
    def spectrum(self) -> SpectralDecomposition:
        with self._lock:
            if self._spectrum is None:
                if self._vector is not None:
                    self._spectrum = _pure_spectrum(self._vector)
                elif self.noise is None:
                    self._spectrum = eigh(self.rho)
                else:
                    base, p = self.noise
                    self._spectrum = SpectralDecomposition(
                        values=p * base.spectrum.values + (1.0 - p) / self.dim,
                        vectors=base.spectrum.vectors)
            return self._spectrum

    def support(self, eps: float = EPS_RANK):
        """Eigenvalues above eps and the matching eigenvector columns.

        Eigenvalues at or below eps are treated as exactly zero. A full-rank
        spectrum is returned as it is held, read-only and uncopied. eps must be
        nonnegative and finite (ValidationError otherwise).
        """
        check_rank_cutoff(eps)
        if self._vector is not None:
            return np.array([1.0]), self._vector.reshape(-1, 1)
        dec = self.spectrum
        keep = dec.values > eps
        if keep.all():
            return dec.values, dec.vectors
        return dec.values[keep], dec.vectors[:, keep]

    def expectation(self, a: np.ndarray) -> complex:
        return complex(np.trace(self.rho @ a))


def check_rank_cutoff(eps: float) -> None:
    """A rank cutoff must be nonnegative and finite (ValidationError otherwise)."""
    if not 0.0 <= eps < math.inf:  # False for NaN too
        raise ValidationError(f"rank cutoff eps must be nonnegative and finite, got {eps}")


def _frozen(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    rho.setflags(write=False)
    return rho


def _pure_spectrum(psi: np.ndarray) -> SpectralDecomposition:
    # Householder completion: an orthonormal basis whose last column is psi,
    # giving the exact rank-one decomposition without an eigensolve.
    d = psi.shape[0]
    k = int(np.argmax(np.abs(psi)))
    phase = psi[k] / abs(psi[k])
    v = psi.astype(complex).copy()
    v[k] += phase
    basis = np.eye(d, dtype=complex) - 2.0 * np.outer(v, v.conj()) / (v.conj() @ v).real
    order = list(range(d))
    order.pop(k)
    order.append(k)
    basis = basis[:, order]
    basis.setflags(write=False)  # a view, which SpectralDecomposition leaves writeable
    values = np.zeros(d)
    values[-1] = 1.0
    return SpectralDecomposition(values=values, vectors=basis)


def _pure_state(psi: np.ndarray, n_qubits: int, spec=None) -> QuantumState:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    with np.errstate(over="ignore"):  # an overflow is the error raised below
        nrm = float(np.linalg.norm(psi))
    if nrm <= 0:
        raise ValidationError("state vector has zero norm")
    if not math.isfinite(nrm):
        raise ValidationError(f"state vector norm is not finite: {nrm}")
    psi = psi / nrm
    psi.setflags(write=False)
    return QuantumState(None, n_qubits, vector=psi, spec=spec)


def apply_local_unitary(psi: np.ndarray, u: np.ndarray, n_qubits: int,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Apply the same 2x2 unitary to every qubit of a state vector, or of each
    column of a 2^N x k matrix, into `out` (a new complex array if None).

    Each qubit is one u @ (2 x 2^N k / 2) product, the operand laid out as
    np.tensordot lays it out, so the bits are tensordot's. The product keeps
    the rotated bit first (bit s, then bits 0 .. s-1, then the rest), which
    one transpose turns into the next qubit's operand; the natural order is
    restored once at the end. The products go into one work array and the
    transposes into `out`, so two arrays of psi's size are made at most. `out`
    (C-contiguous complex, psi's shape) may be psi itself, which only the first
    product reads."""
    work = np.empty(psi.shape, dtype=complex)
    out = np.empty(psi.shape, dtype=complex) if out is None else out
    product, operand = work.reshape(2, -1), out.reshape(2, -1)
    np.dot(u, psi.reshape(2, -1), out=product)
    for s in range(1, n_qubits):
        shape = (2, 2 ** (s - 1), 2, -1)
        np.copyto(out.reshape(shape), work.reshape(shape).transpose(2, 1, 0, 3))
        np.dot(u, operand, out=product)
    np.copyto(out.reshape(2 ** (n_qubits - 1), 2, -1),
              work.reshape(2, 2 ** (n_qubits - 1), -1).transpose(1, 0, 2))
    return out


def _rotate_vector(psi: np.ndarray, basis: str, n_qubits: int) -> np.ndarray:
    if basis == "z":
        return psi
    if basis not in BASIS_ROTATION:
        raise ValidationError(f"basis must be one of ('x', 'y', 'z'), got {basis!r}")
    return apply_local_unitary(psi, BASIS_ROTATION[basis], n_qubits)


@lru_cache(maxsize=64)
def _dicke_vector(n_qubits: int, m: int, basis: str) -> np.ndarray:
    dim = 2 ** n_qubits
    v = np.zeros(dim, dtype=complex)
    v[np.bitwise_count(np.arange(dim)) == m] = 1.0
    v /= math.sqrt(math.comb(n_qubits, m))
    v = _rotate_vector(v, basis, n_qubits)
    v.setflags(write=False)
    return v


def ghz(n_qubits: int, basis: str = "z") -> QuantumState:
    """(|0...0> + |1...1>)/sqrt(2), optionally rotated into the x or y basis."""
    check_qubits(n_qubits)
    v = np.zeros(2 ** n_qubits, dtype=complex)
    v[0] = v[-1] = 1.0 / math.sqrt(2)
    v = _rotate_vector(v, basis, n_qubits)
    return _pure_state(v, n_qubits, spec=StateSpec("ghz", n_qubits, basis))


def dicke(n_qubits: int, m: int, basis: str = "z") -> QuantumState:
    """Symmetric state with m excitations, equal weight on all placements."""
    check_qubits(n_qubits)
    if not 0 <= m <= n_qubits:
        raise ValidationError(f"excitation count m={m} out of range 0..{n_qubits}")
    v = _dicke_vector(n_qubits, m, basis)
    return _pure_state(v, n_qubits, spec=StateSpec("dicke", n_qubits, basis, m=m))


def product_bloch(c, n_qubits: int) -> QuantumState:
    """Half the qubits polarized along +c, half along -c (N even).

    c is a real unit Bloch vector; each qubit's state is an eigenvector of
    the 2x2 c.sigma = 2 J_c for one qubit.
    """
    check_qubits(n_qubits)
    if n_qubits % 2 != 0:
        raise ValidationError("product_bloch requires an even number of qubits")
    c = check_direction(c)
    minus, plus = eigh(2 * j_direction(c, 1)).vectors.T
    v = np.ones(1, dtype=complex)
    for _ in range(n_qubits // 2):
        v = np.kron(v, plus)
    for _ in range(n_qubits // 2):
        v = np.kron(v, minus)
    return _pure_state(v, n_qubits, spec=StateSpec("product_bloch", n_qubits, c=tuple(map(float, c))))


def even_parity_indices(n_qubits: int) -> tuple:
    """Excitation numbers carrying a free coefficient: {0,2,...,N/2-2} + {N/2}."""
    if n_qubits < 2 or n_qubits % 2 != 0:
        raise ValidationError("even_parity requires an even number of qubits")
    return tuple(range(0, n_qubits // 2 - 1, 2)) + (n_qubits // 2,)


def even_parity(coeffs: Sequence[complex], n_qubits: int) -> QuantumState:
    """Superposition of mirrored Dicke pairs plus the balanced Dicke term.

    coeffs follows even_parity_indices(n_qubits); each index n < N/2 weights
    the normalized pair (|n excitations> + |N-n excitations|)/sqrt(2).
    """
    check_qubits(n_qubits)
    idx = even_parity_indices(n_qubits)
    coeffs = tuple(complex(v) for v in coeffs)
    if len(coeffs) != len(idx):
        raise ValidationError(f"expected {len(idx)} coefficients for indices {idx}, got {len(coeffs)}")
    total = sum(abs(v) * abs(v) for v in coeffs)  # inf, not OverflowError, for huge v
    if abs(total - 1.0) > 1e-10:
        raise ValidationError("even_parity coefficients must have unit square sum")
    v = np.zeros(2 ** n_qubits, dtype=complex)
    half = n_qubits // 2
    for cn, n in zip(coeffs, idx):
        if n == half:
            v = v + cn * _dicke_vector(n_qubits, half, "z")
        else:
            pair = (_dicke_vector(n_qubits, n, "z")
                    + _dicke_vector(n_qubits, n_qubits - n, "z")) / math.sqrt(2)
            v = v + cn * pair
    return _pure_state(v, n_qubits, spec=StateSpec("even_parity", n_qubits, coeffs=coeffs))


def dicke_superposition(alpha, n_qubits: int) -> QuantumState:
    """Complex combination of the balanced Dicke state along x, y and z.

    The three kets are not pairwise orthogonal, so the sum is renormalized
    explicitly; one of norm at most VANISHING_NORM |alpha| is an error (at N = 4
    the kets are linearly dependent). Requires N divisible by 4.
    """
    check_qubits(n_qubits)
    if n_qubits % 4 != 0:
        raise ValidationError("dicke_superposition requires N divisible by 4")
    alpha = np.asarray(alpha, dtype=complex).reshape(3)
    half = n_qubits // 2
    v = (alpha[0] * _dicke_vector(n_qubits, half, "x")
         + alpha[1] * _dicke_vector(n_qubits, half, "y")
         + alpha[2] * _dicke_vector(n_qubits, half, "z"))
    with np.errstate(over="ignore"):  # an overflowing norm is _pure_state's error
        nrm, scale = np.linalg.norm(v), np.linalg.norm(alpha)
    if math.isfinite(nrm) and nrm <= VANISHING_NORM * scale:
        raise ValidationError("alpha is all zero or its superposition of the "
                              "balanced Dicke kets vanishes")
    return _pure_state(v, n_qubits,
                       spec=StateSpec("dicke_superposition", n_qubits,
                                      alpha=tuple(complex(a) for a in alpha)))


def excited_dicke(n_qubits: int, basis: str = "z") -> QuantumState:
    """One excited qubit tensored with an (N-1)-qubit Dicke state of N/2-1
    excitations. N even, N >= 4.

    In basis "z" its Fisher triple is (N^2/2, N^2/2, 0); in the other bases
    the zero moves to the chosen axis. It attains the biseparable maximum
    N^2 of the two components transverse to that axis (F_x + F_y for "z"),
    so its three-component sum sits one unit below the biseparable_sum
    bound N^2 + 1."""
    check_qubits(n_qubits)
    if n_qubits % 2 != 0 or n_qubits < 4:
        raise ValidationError("excited_dicke requires even n_qubits >= 4")
    one = np.array([0.0, 1.0], dtype=complex)
    v = np.kron(one, _dicke_vector(n_qubits - 1, n_qubits // 2 - 1, "z"))
    v = _rotate_vector(v, basis, n_qubits)
    return _pure_state(v, n_qubits, spec=StateSpec("excited_dicke", n_qubits, basis))


def completely_mixed(n_qubits: int) -> QuantumState:
    """1/2^N, as white noise of weight 0 over |0...0>: it holds that base vector
    and no dense rho or spectrum."""
    check_qubits(n_qubits)
    zero = np.zeros(2 ** n_qubits, dtype=complex)
    zero[0] = 1.0
    return QuantumState(None, n_qubits, noise=(_pure_state(zero, n_qubits), 0.0),
                        spec=StateSpec("completely_mixed", n_qubits))


def white_noise_mix(inner: QuantumState, p: float, n_qubits: Optional[int] = None) -> QuantumState:
    """p * inner + (1 - p) * identity / 2^N; the weight of a mix is
    multiplied by p. n_qubits is a check, not a setting: when given, it must
    be inner's."""
    if n_qubits is not None and n_qubits != inner.n_qubits:
        raise ValidationError(f"white_noise_mix n_qubits={n_qubits} differs from "
                              f"its inner state's {inner.n_qubits}")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"noise weight p={p} out of [0, 1]")
    spec = None
    if inner.spec is not None:
        spec = StateSpec("white_noise_mix", inner.n_qubits, p=float(p), inner=inner.spec)
    base, weight = inner.noise or (inner, 1.0)
    return QuantumState(None, inner.n_qubits, noise=(base, weight * p), spec=spec)


def mix(states: Sequence[QuantumState], weights) -> QuantumState:
    """Convex mixture of states on the same register."""
    weights = np.asarray(weights, dtype=float)
    if len(states) != len(weights) or len(states) == 0:
        raise ValidationError("mix needs matching, nonempty states and weights")
    # negated, so that a NaN or infinite weight fails the check too
    if not (np.all(weights >= -1e-12) and abs(float(weights.sum()) - 1.0) <= 1e-10):
        raise ValidationError("mixture weights must be finite, nonnegative and sum to 1")
    n = states[0].n_qubits
    if any(s.n_qubits != n for s in states):
        raise ValidationError("all mixture components must share n_qubits")
    rho = sum(w * s.rho for w, s in zip(weights, states))
    return QuantumState(np.asarray(rho), n)


def from_matrix(matrix, n_qubits: Optional[int] = None) -> QuantumState:
    """Validate and wrap an explicit density matrix.

    Collects every failed check (shape, hermiticity, trace, positivity) into
    one error message.
    """
    rho = np.asarray(matrix, dtype=complex)
    problems = []
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError(f"density matrix must be square, got shape {rho.shape}")
    dim = rho.shape[0]
    inferred = int(round(math.log2(dim))) if dim > 0 else 0
    if 2 ** inferred != dim:
        problems.append(f"dimension {dim} is not a power of 2")
    if n_qubits is None:
        n_qubits = inferred
    elif 2 ** n_qubits != dim:
        problems.append(f"dimension {dim} does not match n_qubits={n_qubits}")
    if not np.all(np.isfinite(rho)):
        problems.append("entries must be finite")
    if problems:
        raise ValidationError("invalid density matrix: " + "; ".join(problems))
    check_qubits(n_qubits)

    residue = hermiticity_residue(rho)
    if residue > 1e-10:
        problems.append(f"not Hermitian (max asymmetry {residue:.3e})")
    else:
        rho = (rho + rho.conj().T) / 2.0
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-10:
        problems.append(f"trace {tr!r} differs from 1 by more than 1e-10")
    spectrum = None
    if not problems:
        rho = rho / tr
        spectrum = eigh(rho)
        if spectrum.values[0] < -1e-10:
            problems.append(f"negative eigenvalue {spectrum.values[0]:.3e}")
    if problems:
        raise ValidationError("invalid density matrix: " + "; ".join(problems))
    spec = StateSpec("raw_matrix", n_qubits,
                     matrix=tuple(map(tuple, rho.tolist())))
    return QuantumState(rho, n_qubits, spectrum=spectrum, spec=spec,
                        herm_residue=residue)


def _raw_matrix(matrix, n_qubits: int) -> QuantumState:
    """from_matrix, with n_qubits required as every spec but white noise states it."""
    return from_matrix(matrix, n_qubits)


_KINDS = ("ghz", "dicke", "product_bloch", "even_parity", "dicke_superposition",
          "excited_dicke", "completely_mixed", "white_noise_mix", "raw_matrix")


def builder(kind: str):
    """The constructor from_spec calls for a kind, with its fields as keywords.
    It is looked up by name when called, so a constructor rebound on this
    module (by a profiler, say) is the one called."""
    if kind not in _KINDS:
        raise KeyError(kind)
    return globals()["_raw_matrix" if kind == "raw_matrix" else kind]


# Each kind's fields are read off its constructor's signature: KIND_FIELDS in
# StateSpec field order (a spec of the kind may set no others), _REQUIRED in
# signature order.
_PARAMETERS = {kind: inspect.signature(builder(kind)).parameters for kind in _KINDS}
KIND_FIELDS = {kind: tuple(f.name for f in fields(StateSpec) if f.name in params)
               for kind, params in _PARAMETERS.items()}
_REQUIRED = {kind: [name for name, param in params.items() if param.default is param.empty]
             for kind, params in _PARAMETERS.items()}
KNOWN_KINDS = frozenset(KIND_FIELDS)


def from_spec(spec: StateSpec, cap: int = DIM_CAP) -> QuantumState:
    """Construct the state a StateSpec describes: the one place a caller's cap
    applies. One pass over the chain, outermost spec first, checks the cap on
    every n_qubits and notes each level's unknown kind or missing fields, the
    first of which is raised after it; the builds then run innermost first."""
    if spec.kind not in KIND_FIELDS:
        raise ValidationError(f"unknown state kind {spec.kind!r}")
    levels, problems = [], []
    for part, named in spec._chain():
        if part.n_qubits is not None:
            check_qubits(part.n_qubits, cap)
        required = _REQUIRED.get(part.kind)
        if required is None:
            problems.append(f"unknown state kind {part.kind!r}")
        elif missing := [name for name in required if getattr(part, name) is None]:
            problems.append(f"{part.kind} spec requires {', '.join(missing)}")
        levels.append((part.kind, dict(named)))
    if problems:
        raise ValidationError(problems[0])
    state = None
    for kind, kwargs in reversed(levels):
        if state is not None:
            kwargs["inner"] = state
        state = builder(kind)(**kwargs)
    return state
