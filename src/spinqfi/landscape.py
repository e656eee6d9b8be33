"""Geometry of the (F_x, F_y, F_z) landscape.

Landmark coordinates, convex-polytope membership, plane samplers, the
white-noise scaling line, and the closed-form QFI matrix for superpositions
of the three balanced Dicke states.

Landmark keys: "origin" (completely mixed), "product_l" (polarized product
states), "dicke_l" (balanced Dicke states), "excited_dicke_l" (the
biseparable extremal candidates) and "ghz_l", each for l in {x, y, z}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import states
from .collective import collective_j
from .errors import NumericalError, ValidationError
from .qfi import fisher_triple, qfi_matrix
from .states import QuantumState, StateSpec

MEMBERSHIP_TOL = 1e-8


@dataclass(frozen=True)
class FisherPoint:
    """A point in (F_x, F_y, F_z)-space, optionally tagged with the StateSpec
    of a state realizing it."""

    p: np.ndarray
    provenance: Optional[StateSpec] = None

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).reshape(3)
        if np.any(p < -1e-9):
            raise ValidationError(f"Fisher components must be nonnegative, got {p}")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class Polytope:
    name: str
    vertices: Tuple[FisherPoint, ...]

    def __post_init__(self):
        verts = tuple(self.vertices)
        if not verts:
            raise ValidationError("polytope needs at least one vertex")
        object.__setattr__(self, "vertices", verts)


def _coordinates(q) -> np.ndarray:
    """The (F_x, F_y, F_z) of a FisherPoint or of any 3-sequence, as floats."""
    if isinstance(q, FisherPoint):
        q = q.p
    return np.asarray(q, dtype=float).reshape(3)


def _axis_permutation(point_z: np.ndarray, axis: str) -> np.ndarray:
    # the basis-l member of each family swaps coordinate l with z
    q = np.array(point_z, dtype=float)
    if axis == "x":
        q[0], q[2] = q[2], q[0]
    elif axis == "y":
        q[1], q[2] = q[2], q[1]
    return q


def landmark_points(n_qubits: int) -> Dict[str, FisherPoint]:
    """Tabulated landscape coordinates for the reference families (N even)."""
    n = int(n_qubits)
    if n < 2 or n % 2 != 0:
        raise ValidationError("landmark_points requires even n_qubits >= 2")
    dicke_val = n * (n + 2) / 2.0
    excited_val = n * n / 2.0 + 0.5
    base = {
        "product": np.array([float(n), float(n), 0.0]),
        "dicke": np.array([dicke_val, dicke_val, 0.0]),
        "excited_dicke": np.array([excited_val, excited_val, 0.0]),
        "ghz": np.array([float(n), float(n), float(n * n)]),
    }
    specs = landmark_specs(n)
    out = {"origin": FisherPoint(np.zeros(3), provenance=specs["origin"])}
    for family, point_z in base.items():
        for axis in ("x", "y", "z"):
            key = f"{family}_{axis}"
            out[key] = FisherPoint(_axis_permutation(point_z, axis),
                                   provenance=specs[key])
    return out


def landmark_specs(n_qubits: int) -> Dict[str, StateSpec]:
    n = int(n_qubits)
    specs = {"origin": StateSpec("completely_mixed", n)}
    for axis in ("x", "y", "z"):
        unit = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}[axis]
        specs[f"product_{axis}"] = StateSpec("product_bloch", n, c=unit)
        specs[f"dicke_{axis}"] = StateSpec("dicke", n, axis, m=n // 2)
        specs[f"excited_dicke_{axis}"] = StateSpec("excited_dicke", n, axis)
        specs[f"ghz_{axis}"] = StateSpec("ghz", n, axis)
    return specs


def landmark_states(n_qubits: int) -> Dict[str, QuantumState]:
    return {key: states.from_spec(spec)
            for key, spec in landmark_specs(n_qubits).items()}


@dataclass(frozen=True)
class LandmarkCheck:
    name: str
    tabulated: np.ndarray
    computed: np.ndarray
    max_error: float
    ok: bool


@dataclass(frozen=True)
class ConsistencyReport:
    checks: Tuple[LandmarkCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.ok)


def landmark_consistency(n_qubits: int, tol: float = 1e-8) -> ConsistencyReport:
    """Recompute every landmark state's triple against the tabulated point."""
    points = landmark_points(n_qubits)
    built = landmark_states(n_qubits)
    checks = []
    for name in points:
        computed = fisher_triple(built[name])
        tabulated = points[name].p
        err = float(np.max(np.abs(computed - tabulated)))
        checks.append(LandmarkCheck(name=name, tabulated=tabulated,
                                    computed=computed, max_error=err,
                                    ok=err <= tol))
    return ConsistencyReport(checks=tuple(checks))


def named_polytope(name: str, n_qubits: int) -> Polytope:
    """The three reference polytopes: "product" (product vertices plus the
    origin), "dicke" (Dicke vertices plus the origin), "bisep" (Dicke plus
    excited-Dicke vertices)."""
    pts = landmark_points(n_qubits)
    if name == "product":
        keys = ["origin", "product_x", "product_y", "product_z"]
    elif name == "dicke":
        keys = ["origin", "dicke_x", "dicke_y", "dicke_z"]
    elif name == "bisep":
        keys = ["dicke_x", "dicke_y", "dicke_z",
                "excited_dicke_x", "excited_dicke_y", "excited_dicke_z"]
    else:
        raise ValidationError(f"unknown polytope {name!r}")
    return Polytope(name=name, vertices=tuple(pts[k] for k in keys))


def polytope_contains(poly: Polytope, q, tol: float = MEMBERSHIP_TOL) -> bool:
    """Convex-combination membership, boundary included: the nonnegative
    least-squares w of [V; 1] w = [q; 1] reproduces [q; 1] within tol."""
    q = _coordinates(q)
    verts = np.array([v.p for v in poly.vertices])
    if len(verts) > 8:
        raise ValidationError("membership test supports at most 8 vertices")
    if not np.all(np.isfinite(q)):
        return False
    from scipy.optimize import nnls  # deferred: scipy.optimize dominates import time

    block = np.vstack([verts.T, np.ones(len(verts))])
    target = np.concatenate([q, [1.0]])
    w, _ = nnls(block, target)
    return bool(np.max(np.abs(block @ w - target)) <= tol)


def product_state_for_point(q, n_qubits: int, tol: float = MEMBERSHIP_TOL) -> QuantumState:
    """Product state whose triple reproduces a point on the product plane.

    The plane carries sum(q) = 2N with every component in [0, N]; the Bloch
    coefficients follow from c_l^2 = 1 - q_l / N.
    """
    q = _coordinates(q)
    n = int(n_qubits)
    if n % 2 != 0 or n < 2:
        raise ValidationError("product_state_for_point requires even n_qubits")
    if abs(float(q.sum()) - 2.0 * n) > tol or np.any(q < -tol) or np.any(q > n + tol):
        raise ValidationError(f"point {q} is outside the product-plane triangle")
    c = np.sqrt(np.clip(1.0 - q / n, 0.0, 1.0))
    c /= float(np.linalg.norm(c))
    return states.product_bloch(c, n)


def noise_scale(p: float, n_qubits: int) -> float:
    """QFI-matrix scale factor of mixing a pure state with white noise."""
    c = 2.0 ** (-(n_qubits - 1))
    return p * p / (p + (1.0 - p) * c)


def noise_weight_for_scale(s: float, n_qubits: int) -> float:
    """Inverse of noise_scale on [0, 1]."""
    if not 0.0 <= s <= 1.0 + 1e-12:
        raise ValidationError(f"scale {s} out of [0, 1]")
    s = min(s, 1.0)
    c = 2.0 ** (-(n_qubits - 1))
    return (s * (1.0 - c) + math.sqrt(s * s * (1.0 - c) ** 2 + 4.0 * s * c)) / 2.0


def _realize_in_cone(q, n_qubits: int, plane, polytope: str, plane_state) -> QuantumState:
    """A state for a point q of the cone over the plane sum(F) = plane: plane_state(q / t)
    mixed with white noise down to the scale t = sum(q) / plane (see noise_scale)."""
    q = _coordinates(q)
    t = float(q.sum()) / plane
    if t > 1.0 + 1e-9:
        raise ValidationError(f"point {q} lies outside the {polytope} polytope")
    if t <= 1e-15:
        return states.completely_mixed(n_qubits)
    return states.white_noise_mix(plane_state(q / t), noise_weight_for_scale(t, n_qubits))


def realize_product_point(q, n_qubits: int) -> QuantumState:
    """A separable state for any point of the product polytope (cone over the
    product triangle), by scaling down a plane point with white noise."""
    return _realize_in_cone(q, n_qubits, 2.0 * n_qubits, "product",
                            lambda point: product_state_for_point(point, n_qubits))


def sample_product_polytope(n_qubits: int, count: int, seed: int) -> List[FisherPoint]:
    """Random interior points of the product polytope with realizing states."""
    rng = np.random.default_rng(seed)
    pts = landmark_points(n_qubits)
    verts = np.array([pts[k].p for k in
                      ("product_x", "product_y", "product_z", "origin")])
    out = []
    for _ in range(count):
        w = rng.dirichlet(np.ones(4))
        target = w @ verts
        state = realize_product_point(target, n_qubits)
        out.append(FisherPoint(fisher_triple(state), provenance=state.spec))
    return out


def sample_dicke_plane(n_qubits: int, count: int, seed: int) -> List[FisherPoint]:
    """Random balanced-Dicke superpositions, amplitudes drawn with uniform
    modulus and phase; every triple lands on the plane sum F = N(N+2).
    Deterministic under the seed."""
    n = int(n_qubits)
    if n % 4 != 0:
        raise ValidationError("sample_dicke_plane requires N divisible by 4")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        modulus = rng.uniform(0.0, 1.0, 3)
        phase = rng.uniform(0.0, 2.0 * math.pi, 3)
        alpha = modulus * np.exp(1j * phase)
        if np.max(modulus) < 1e-6:
            alpha = np.array([1.0, 0.0, 0.0], dtype=complex)
        state = states.dicke_superposition(alpha, n)
        out.append(FisherPoint(fisher_triple(state), provenance=state.spec))
    return out


@dataclass(frozen=True)
class NoiseLinePoint:
    p: float
    measured: FisherPoint
    predicted: np.ndarray
    residual: float


@dataclass(frozen=True)
class NoiseLineResult:
    entries: Tuple[NoiseLinePoint, ...]
    max_residual: float


def noise_line(state: QuantumState, p_grid: Sequence[float]) -> NoiseLineResult:
    """Direct QFI matrix along the white-noise line against the pure-state
    scaling prediction; residuals are exact only for pure input."""
    base = qfi_matrix(state).mat
    entries = []
    worst = 0.0
    for p in p_grid:
        mixed = states.white_noise_mix(state, float(p))
        direct = qfi_matrix(mixed).mat
        predicted = noise_scale(float(p), state.n_qubits) * base
        residual = float(np.max(np.abs(direct - predicted)))
        worst = max(worst, residual)
        entries.append(NoiseLinePoint(p=float(p),
                                      measured=FisherPoint(np.diag(direct).copy(),
                                                           provenance=mixed.spec),
                                      predicted=np.diag(predicted).copy(),
                                      residual=residual))
    return NoiseLineResult(entries=tuple(entries), max_residual=worst)


@lru_cache(maxsize=8)
def _closed_form_constants(n_qubits: int) -> Tuple[float, float, float]:
    """(Q, imaginary residue of Q, pair overlap) for the balanced Dicke kets."""
    half = n_qubits // 2
    dx = states._dicke_vector(n_qubits, half, "x")
    dz = states._dicke_vector(n_qubits, half, "z")
    jy = collective_j("y", n_qubits)
    q = complex(dx.conj() @ (jy @ (jy @ dz)))
    overlap = complex(dx.conj() @ dz)
    return q.real, abs(q.imag), overlap.real


def closed_form_triple(alpha, n_qubits: int) -> np.ndarray:
    """Diagonal of the QFI matrix for a normalized balanced-Dicke
    superposition, from the two-term closed form.

    alpha must be the post-normalization amplitudes; each diagonal entry is
    (|a_u|^2 + |a_v|^2) N(N+2)/2 + 8 Re(conj(a_u) a_v Q) over the other two
    axes u, v.
    """
    alpha = np.asarray(alpha, dtype=complex).reshape(3)
    q_val, _, _ = _closed_form_constants(n_qubits)
    k_val = n_qubits * (n_qubits + 2) / 2.0
    out = np.empty(3)
    for i, (u, v) in enumerate(((1, 2), (2, 0), (0, 1))):
        cross = (np.conj(alpha[u]) * alpha[v] * q_val).real
        out[i] = (abs(alpha[u]) ** 2 + abs(alpha[v]) ** 2) * k_val + 8.0 * cross
    return out


@dataclass(frozen=True)
class ClosedFormReport:
    q_value: float
    alpha_normalized: np.ndarray
    predicted: np.ndarray
    direct: np.ndarray
    max_residual: float
    max_offdiagonal: float


def closed_form_check(alpha, n_qubits: int) -> ClosedFormReport:
    """Closed form against the direct QFI matrix for one superposition."""
    n = int(n_qubits)
    if n % 4 != 0:
        raise ValidationError("closed_form_check requires N divisible by 4")
    q_val, q_imag, _ = _closed_form_constants(n)
    if q_imag > 1e-9:
        raise NumericalError(f"overlap matrix element has imaginary part {q_imag:.3e}")
    norm_alpha = states.normalized_amplitudes(alpha, n)
    predicted = closed_form_triple(norm_alpha, n)
    mat = qfi_matrix(states.dicke_superposition(alpha, n)).mat
    direct = np.diag(mat).copy()
    off = float(np.max(np.abs(mat - np.diag(np.diag(mat)))))
    if off > 1e-9:
        raise NumericalError(f"off-diagonal QFI entry {off:.3e} exceeds 1e-9")
    return ClosedFormReport(q_value=q_val, alpha_normalized=norm_alpha,
                            predicted=predicted, direct=direct,
                            max_residual=float(np.max(np.abs(predicted - direct))),
                            max_offdiagonal=off)


def alpha_for_point(q, n_qubits: int, seed: int = 0, max_starts: int = 60) -> np.ndarray:
    """Invert the closed form: amplitudes whose superposition reproduces an
    interior point of the Dicke-plane triangle.

    Numeric least squares over real and imaginary parts with seeded
    multistart; accepted when the realized triple matches within 1e-6.
    Boundary points with a vanishing component are out of reach for this
    family (the cross term cannot cancel the diagonal one) and raise
    NumericalError after the multistart budget.
    """
    q = _coordinates(q)
    n = int(n_qubits)
    if n % 4 != 0:
        raise ValidationError("alpha_for_point requires N divisible by 4")
    plane = float(n * (n + 2))
    if abs(float(q.sum()) - plane) > 1e-6:
        raise ValidationError(f"point {q} is not on the Dicke plane (sum {plane})")
    _, _, overlap = _closed_form_constants(n)
    gram = np.full((3, 3), overlap)
    np.fill_diagonal(gram, 1.0)

    def objective(x):
        a = x[:3] + 1j * x[3:]
        nrm2 = float((a.conj() @ gram @ a).real)
        if nrm2 < 1e-9:
            return np.array([1e6, 1e6, 1e6, 1e6])
        a = a / math.sqrt(nrm2)
        return np.concatenate([closed_form_triple(a, n) - q, [nrm2 - 1.0]])

    from scipy.optimize import least_squares  # deferred, as in polytope_contains

    rng = np.random.default_rng(seed)
    starts = [np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]) / math.sqrt(3)]
    starts += [rng.uniform(-1, 1, 6) for _ in range(max_starts - 1)]
    for x0 in starts:
        sol = least_squares(objective, x0, xtol=1e-15, ftol=1e-15, gtol=1e-15)
        a = sol.x[:3] + 1j * sol.x[3:]
        nrm2 = float((a.conj() @ gram @ a).real)
        if nrm2 < 1e-9:
            continue
        a = a / math.sqrt(nrm2)
        if np.max(np.abs(closed_form_triple(a, n) - q)) > 1e-7:
            continue
        realized = fisher_triple(states.dicke_superposition(a, n))
        if np.max(np.abs(realized - q)) <= 1e-6:
            return a
    raise NumericalError(f"no amplitude solution found for Dicke-plane point {q}")


def realize_dicke_point(q, n_qubits: int, seed: int = 0) -> QuantumState:
    """A state for an interior point of the cone spanned by the origin and
    the Dicke-plane triangle, via the closed-form inverse plus white noise."""
    n = int(n_qubits)
    return _realize_in_cone(
        q, n, n * (n + 2), "Dicke",
        lambda point: states.dicke_superposition(alpha_for_point(point, n, seed), n))
