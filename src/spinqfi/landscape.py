"""Geometry of the (F_x, F_y, F_z) landscape.

Landmark coordinates, convex-polytope membership, plane samplers, the
white-noise scaling line, and the superpositions of the three balanced Dicke
states. That family has one model, formed once per N (divisible by 4) on the
N + 1 symmetric Dicke states: the kets' Gram matrix G and three 3x3 forms
M_l, with F_l = a^H M_l a for G-unit amplitudes a. The closed form reads it
directly; the inverse for a point of the triangle of the Dicke landmarks is
two exact Toeplitz-Hausdorff chord steps on it (Carden, Inverse Problems 25,
115019 (2009)), deterministic and with no numerical search. Plane points
outside that triangle are not inverted.

Landmark keys: "origin" (completely mixed), "product_l" (polarized product
states), "dicke_l" (balanced Dicke states), "excited_dicke_l" (the
biseparable extremal candidates) and "ghz_l", each for l in {x, y, z}.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import states
from .errors import NumericalError, ValidationError
from .matcore import check_integer, check_qubits
from .qfi import fisher_triple, noise_scale, noise_weight_for_scale, qfi_matrix
from .states import EPS_RANK, QuantumState, StateSpec

MEMBERSHIP_TOL = 1e-8


@dataclass(frozen=True)
class FisherPoint:
    """A point in (F_x, F_y, F_z)-space, optionally tagged with the StateSpec
    of a state realizing it."""

    p: np.ndarray
    provenance: Optional[StateSpec] = None

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).reshape(3)
        if not np.all(np.isfinite(p)):
            raise ValidationError(f"Fisher components must be finite, got {p}")
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


def _landmarks(n: int) -> Dict[str, Tuple[StateSpec, np.ndarray]]:
    """key -> (spec, tabulated point) of the thirteen landmarks, in report order.

    Each family is one row: its along-z point and the spec of its member along
    an axis; the basis-l member swaps coordinate l with z. The coordinates are
    floats, inf for an N too large for one (float(n) itself fails from 2^1024)."""
    f = float(n) if n.bit_length() < 1024 else math.inf
    dicke_val = f * (f + 2) / 2.0
    excited_val = f * f / 2.0 + 0.5  # half a unit above the state's N^2/2; see README
    along_z = [
        ("product", (f, f, 0),
         lambda axis: StateSpec("product_bloch", n, c=tuple(float(a == axis) for a in "xyz"))),
        ("dicke", (dicke_val, dicke_val, 0), lambda axis: StateSpec("dicke", n, axis, m=n // 2)),
        ("excited_dicke", (excited_val, excited_val, 0),
         lambda axis: StateSpec("excited_dicke", n, axis)),
        ("ghz", (f, f, f * f), lambda axis: StateSpec("ghz", n, axis)),
    ]
    table = {"origin": (StateSpec("completely_mixed", n), np.zeros(3))}
    for family, point_z, spec in along_z:
        for i, axis in enumerate("xyz"):
            q = np.array(point_z, dtype=float)
            q[i], q[2] = q[2], q[i]
            table[f"{family}_{axis}"] = (spec(axis), q)
    return table


def landmark_points(n_qubits: int) -> Dict[str, FisherPoint]:
    """Tabulated landscape coordinates for the reference families (N even)."""
    n = check_integer(n_qubits, "n_qubits")
    if n < 2 or n % 2 != 0:
        raise ValidationError("landmark_points requires even n_qubits >= 2")
    return {key: FisherPoint(point, provenance=spec)
            for key, (spec, point) in _landmarks(n).items()}


def landmark_specs(n_qubits: int) -> Dict[str, StateSpec]:
    n = check_integer(n_qubits, "n_qubits")
    return {key: spec for key, (spec, _) in _landmarks(n).items()}


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


def landmark_consistency(n_qubits: int) -> ConsistencyReport:
    """Recompute every landmark state's triple against the tabulated point, to 1e-8."""
    points = landmark_points(n_qubits)
    built = landmark_states(n_qubits)
    checks = []
    for name in points:
        computed = fisher_triple(built[name])
        tabulated = points[name].p
        err = float(np.max(np.abs(computed - tabulated)))
        checks.append(LandmarkCheck(name=name, tabulated=tabulated,
                                    computed=computed, max_error=err,
                                    ok=err <= 1e-8))
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
    """Convex-combination membership, boundary included: some set S of at most
    four vertices has least-squares weights w >= 0 for [V_S; 1] w = [q; 1] that
    reproduce [q; 1] within tol, which must be nonnegative and finite.

    By Caratheodory's theorem a point of a 3-D hull lies in the hull of at
    most four vertices, and the nonnegative least-squares optimum over all
    vertices is the least-squares solve on its passive set, one of these sets.
    So this enumeration (at most 162 sets for 8 vertices) answers as that
    optimum does, except where its largest residual lies in (tol, 2 tol]."""
    if not 0.0 <= tol < math.inf:  # False for NaN too
        raise ValidationError(f"tol must be nonnegative and finite, got {tol}")
    q = _coordinates(q)
    verts = np.array([v.p for v in poly.vertices])
    if len(verts) > 8:
        raise ValidationError("membership test supports at most 8 vertices")
    if not np.all(np.isfinite(q)):
        return False
    block = np.vstack([verts.T, np.ones(len(verts))])
    target = np.concatenate([q, [1.0]])
    for size in range(1, min(4, len(verts)) + 1):
        for cols in itertools.combinations(range(len(verts)), size):
            sub = block[:, cols]
            w = np.linalg.lstsq(sub, target, rcond=None)[0]
            if np.all(w >= 0.0) and np.max(np.abs(sub @ w - target)) <= tol:
                return True
    return False


def product_state_for_point(q, n_qubits: int) -> QuantumState:
    """Product state whose triple reproduces a point on the product plane.

    The plane carries sum(q) = 2N with every component in [0, N]; the Bloch
    coefficients follow from c_l^2 = 1 - q_l / N.
    """
    q = _coordinates(q)
    n = check_integer(n_qubits, "n_qubits")
    if n % 2 != 0 or n < 2:
        raise ValidationError("product_state_for_point requires even n_qubits")
    tol = MEMBERSHIP_TOL
    if abs(float(q.sum()) - 2.0 * n) > tol or np.any(q < -tol) or np.any(q > n + tol):
        raise ValidationError(f"point {q} is outside the product-plane triangle")
    c = np.sqrt(np.clip(1.0 - q / n, 0.0, 1.0))
    c /= float(np.linalg.norm(c))
    return states.product_bloch(c, n)


def _realize_in_cone(q, n_qubits: int, plane, polytope: str, plane_state) -> QuantumState:
    """A state for a point q of the cone over the plane sum(F) = plane: plane_state(q / t)
    mixed with white noise down to the scale t = sum(q) / plane (see noise_scale).
    A point that is not finite, has a negative component or lies beyond the
    plane is a ValidationError."""
    q = _coordinates(q)
    t = float(q.sum()) / plane
    if not np.all(np.isfinite(q)) or t > 1.0 + 1e-9 or np.any(q < -1e-9):
        raise ValidationError(f"point {q} lies outside the {polytope} polytope")
    if t <= 1e-15:
        return states.completely_mixed(n_qubits)
    return states.white_noise_mix(plane_state(q / t), noise_weight_for_scale(t, n_qubits))


def realize_product_point(q, n_qubits: int) -> QuantumState:
    """A separable state for any point of the product polytope (cone over the
    product triangle), by scaling down a plane point with white noise."""
    return _realize_in_cone(q, n_qubits, 2.0 * n_qubits, "product",
                            lambda point: product_state_for_point(point, n_qubits))


def sample_product_polytope(n_qubits: int, count: int, seed: int,
                            eps_rank: float = EPS_RANK) -> List[FisherPoint]:
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
        out.append(FisherPoint(fisher_triple(state, eps_rank), provenance=state.spec))
    return out


def sample_dicke_plane(n_qubits: int, count: int, seed: int) -> List[FisherPoint]:
    """Random balanced-Dicke superpositions, amplitudes drawn with uniform
    modulus and phase; every triple lands on the plane sum F = N(N+2).
    Deterministic under the seed."""
    n = check_integer(n_qubits, "n_qubits")
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


def noise_line(state: QuantumState, p_grid: Sequence[float],
               eps_rank: float = EPS_RANK) -> NoiseLineResult:
    """Direct QFI matrix along the white-noise line against the pure-state
    scaling prediction; residuals are exact only for pure input."""
    base = qfi_matrix(state, eps_rank).mat
    entries = []
    worst = 0.0
    for p in p_grid:
        mixed = states.white_noise_mix(state, float(p))
        direct = qfi_matrix(mixed, eps_rank).mat
        predicted = noise_scale(float(p), state.n_qubits) * base
        residual = float(np.max(np.abs(direct - predicted)))
        worst = max(worst, residual)
        entries.append(NoiseLinePoint(p=float(p),
                                      measured=FisherPoint(np.diag(direct).copy(),
                                                           provenance=mixed.spec),
                                      predicted=np.diag(predicted).copy(),
                                      residual=residual))
    return NoiseLineResult(entries=tuple(entries), max_residual=worst)


@lru_cache(maxsize=8, typed=True)  # typed, so that 8.0 is checked rather than read as 8
def _dicke_plane_model(n_qubits: int) -> Tuple[np.ndarray, np.ndarray]:
    """(G, M) of the balanced-Dicke family, on the N + 1 symmetric Dicke states
    |D_k> (k excitations): J_z = diag(N/2 - k), <D_{k-1}|J_+|D_k> =
    sqrt(k (N - k + 1)). The kets D = [D_x, D_y, D_z]: D_z = |D_{N/2}>, and D_x, D_y
    are the null vectors of J_x, J_y, phased so that their |D_0> amplitude is
    positive, as states.dicke(n, n/2, "x"|"y") has them. G = D^H D and M[l] = 4 (J_l D)^H (J_l D);
    D^H J_l D vanishes, so a G-unit a has F_l = a^H M_l a. Read-only."""
    n = check_integer(n_qubits, "n_qubits")
    check_qubits(n)
    if n % 4 != 0:
        raise ValidationError("the Dicke-plane family requires N divisible by 4")
    k = np.arange(n + 1)
    up = np.diag(np.sqrt(k[1:] * (n + 1.0 - k[1:])), 1)  # J_+
    ops = [(up + up.T) / 2, (up - up.T) / 2j, np.diag(n / 2 - k)]
    nulls = [np.linalg.eigh(op)[1][:, n // 2] for op in ops[:2]]  # eigenvalues -N/2, ..., N/2
    kets = np.stack([v * (abs(v[0]) / v[0]) for v in nulls] + [np.eye(n + 1)[n // 2]], axis=1)
    moved = [j @ kets for j in ops]
    first = max(float(np.max(np.abs(kets.conj().T @ jd))) for jd in moved)
    if first > 1e-9:
        raise NumericalError(f"first moment D^H J D has an entry {first:.3e} above 1e-9")
    gram = kets.conj().T @ kets
    forms = np.array([4.0 * (jd.conj().T @ jd) for jd in moved])
    gram.setflags(write=False)
    forms.setflags(write=False)
    return gram, forms


def normalized_amplitudes(alpha, n_qubits: int) -> np.ndarray:
    """Amplitudes rescaled to a^H G a = 1, the true norm of their superposition.
    Amplitudes that are not finite, or whose superposition vanishes as in
    states.dicke_superposition, are a ValidationError."""
    a = np.asarray(alpha, dtype=complex).reshape(3)
    top = float(np.max(np.abs(a)))
    if not math.isfinite(top):
        raise ValidationError(f"amplitudes must be finite, got {a}")
    a = a / top if top > 0.0 else a  # so that a^H G a cannot overflow
    nrm2 = float((a.conj() @ _dicke_plane_model(n_qubits)[0] @ a).real)
    if not nrm2 > (states.VANISHING_NORM * float(np.linalg.norm(a))) ** 2:
        raise ValidationError("alpha is all zero or its superposition of the "
                              "balanced Dicke kets vanishes")
    return a / math.sqrt(nrm2)


def _triple_of(forms: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(a^H M_l a) for l = x, y, z."""
    return np.einsum("i,lij,j->l", a.conj(), forms, a).real


def closed_form_triple(alpha, n_qubits: int) -> np.ndarray:
    """Diagonal of the QFI matrix of a balanced-Dicke superposition,
    F_l = a^H M_l a, read off the family's (G, M) model.

    alpha must be the post-normalization amplitudes (a^H G a = 1, as
    normalized_amplitudes returns them). Each pair of kets carries its own
    cross term: for N = 4 (mod 8) the x-z pair has the opposite sign to the
    other two. N must be divisible by 4 (ValidationError otherwise).
    """
    normalized_amplitudes(alpha, n_qubits)  # rejects non-finite or vanishing amplitudes
    return _triple_of(_dicke_plane_model(n_qubits)[1],
                      np.asarray(alpha, dtype=complex).reshape(3))


@dataclass(frozen=True)
class ClosedFormReport:
    q_value: float
    alpha_normalized: np.ndarray
    predicted: np.ndarray
    direct: np.ndarray
    max_residual: float
    max_offdiagonal: float


def closed_form_check(alpha, n_qubits: int) -> ClosedFormReport:
    """Closed form against the direct QFI matrix for one superposition.
    q_value is <D_x|J_y^2|D_z> = M_y[x, z] / 4."""
    n = check_integer(n_qubits, "n_qubits")
    forms = _dicke_plane_model(n)[1]
    norm_alpha = normalized_amplitudes(alpha, n)
    predicted = _triple_of(forms, norm_alpha)
    mat = qfi_matrix(states.dicke_superposition(alpha, n)).mat
    direct = np.diag(mat).copy()
    off = float(np.max(np.abs(mat - np.diag(np.diag(mat)))))
    if off > 1e-9:
        raise NumericalError(f"off-diagonal QFI entry {off:.3e} exceeds 1e-9")
    return ClosedFormReport(q_value=float(forms[1, 0, 2].real) / 4.0,
                            alpha_normalized=norm_alpha,
                            predicted=predicted, direct=direct,
                            max_residual=float(np.max(np.abs(predicted - direct))),
                            max_offdiagonal=off)


def _chord_step(a, b, t: float, gram, forms) -> np.ndarray:
    """G-unit v in span(a, b) whose triple is p_a + t d, d = p_b - p_a, for
    G-unit a, b with triples p_a, p_b: the constructive Toeplitz-Hausdorff step.

    N = sum n_l M_l - (n.p_a) G, n = d x (1, 1, 1), vanishes at a and b; with
    b's phase making a^H N b imaginary, every v = a + s b (s real) keeps its
    triple on the chord's line. T = sum d_l M_l - (d.z) G is -t|d|^2 at a and
    (1 - t)|d|^2 at b (taken exact), so v^H T v = 0 has a root s >= 0."""
    if t >= 1.0:
        return b
    p_a = _triple_of(forms, a)
    d = _triple_of(forms, b) - p_a
    normal = np.cross(d, np.ones(3))
    cross = a.conj() @ (np.tensordot(normal, forms, 1) - (normal @ p_a) * gram) @ b
    b = b * np.exp(1j * (math.pi / 2 - np.angle(cross)))  # a^H N b = i |cross|
    along = np.tensordot(d, forms, 1) - (d @ (p_a + t * d)) * gram
    ta, tb = -t * (d @ d), (1.0 - t) * (d @ d)  # exact, so ta <= 0 <= tb
    tab = float((a.conj() @ along @ b).real)
    root = math.sqrt(tab * tab - ta * tb)
    # v = x a + y b with x, y >= 0 solving ta x^2 + 2 tab x y + tb y^2 = 0,
    # in the form that cancels nothing
    x, y = (tab + root, -ta) if tab > 0.0 else (tb, root - tab)
    v = x * a + y * b  # s = y / x
    return v / math.sqrt(float((v.conj() @ gram @ v).real))


def alpha_for_point(q, n_qubits: int) -> np.ndarray:
    """Invert the closed form, exactly and deterministically: G-unit amplitudes
    whose superposition reproduces a point of the triangle of the Dicke
    landmarks, edges and vertices included.

    With q's barycentric weights w on that triangle, two chord steps on the
    (G, M) model go from the G-unit e_x towards e_y by w_y / (w_x + w_y), then
    towards e_z by w_z; the realized triple is checked to 1e-6. A non-finite or
    off-plane q is a ValidationError; a plane point outside the triangle raises
    NumericalError, though the family reaches part of the plane beyond it.
    """
    q = _coordinates(q)
    n = check_integer(n_qubits, "n_qubits")
    gram, forms = _dicke_plane_model(n)
    k = n * (n + 2) / 2.0
    if not np.all(np.isfinite(q)) or abs(float(q.sum()) - 2.0 * k) > 1e-6:
        raise ValidationError(f"point {q} is not a finite point of the Dicke plane (sum {2.0 * k})")
    w = 1.0 - q / k  # the landmark dicke_l has F_l = 0 and K = N(N+2)/2 elsewhere
    if np.any(w < -1e-9):
        raise NumericalError(f"Dicke-plane point {q} lies outside the triangle of the Dicke landmarks")
    w = np.clip(w, 0.0, 1.0)
    units = np.eye(3, dtype=complex) / np.sqrt(np.diag(gram).real)  # rows e_l / sqrt(G_ll)
    a = units[0]
    if w[0] + w[1] > 0.0:
        a = _chord_step(a, units[1], w[1] / (w[0] + w[1]), gram, forms)
    a = _chord_step(a, units[2], w[2], gram, forms)
    realized = fisher_triple(states.dicke_superposition(a, n))
    if not np.max(np.abs(realized - q)) <= 1e-6:
        raise NumericalError(f"amplitudes for Dicke-plane point {q} realize {realized}")
    return a


def realize_dicke_point(q, n_qubits: int, seed: int = 0) -> QuantumState:
    """A state for a point of the cone spanned by the origin and the
    Dicke-plane triangle: alpha_for_point's superposition for the plane point,
    plus white noise. The inverse is deterministic, so seed is accepted for
    existing callers and ignored."""
    del seed
    n = check_integer(n_qubits, "n_qubits")
    return _realize_in_cone(
        q, n, n * (n + 2), "Dicke",
        lambda point: states.dicke_superposition(alpha_for_point(point, n), n))
