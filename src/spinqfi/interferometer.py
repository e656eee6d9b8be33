"""Phase evolution and classical Fisher information, which `spinqfi crb` checks
against the quantum Cramer-Rao bound.

The phase map rho -> exp(-i theta J_n) rho exp(+i theta J_n) rotates each
qubit by u = exp(-i theta n.sigma/2), and a measurement is a basis change B
plus outcome labels, so no 2^N x 2^N projector is formed. A pure state is
rotated as a vector, a dense one as a matrix from both sides. A white-noise
mix (states.white_noise_mix, a base and one weight P) is rotated as its base
and keeps P, since 1/d is rotation invariant with populations 1/d: p = P p_base
+ (1 - P) share and p' = P p'_base. No dense rho is built for it, and over a
pure base its F_Q is the base's scaled (qfi.qfi_direction), so `crb` on such a
mix costs what the pure base costs.

The classical Fisher information sum_k p_k'^2 / p_k takes one pass into the
measurement frame and the exact phase derivative there. With rho~ the rotated
state and J_m = B^dagger J_n B, dp_i/dtheta = 2 Im (J_m rho~)_ii, binned by
outcome label. For a 2x2 B the pass is U = B^dagger u on every qubit, and J_m
is J_n with n carried through B's frame change, read off the operator table
at O(N 2^N); a dense rho~ needs only the diagonal of J_m rho~. For a dense B
the state is rotated by u, and B^dagger is applied to it and to J_n times it.
Outcomes below a probability floor are excluded (their derivative
contribution is dropped and counted).
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .collective import (IDENTITY_2, apply_terms, check_axis, check_direction, direction_terms,
                         j_direction)
from .errors import ValidationError
from .matcore import check_qubits, eigh, herm_exp
from .states import BASIS_ROTATION, QuantumState, _pure_state, apply_local_unitary

P_FLOOR = 1e-12


@dataclass(frozen=True)
class PhaseSetting:
    theta: float
    direction: tuple

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValidationError("theta must be finite")
        object.__setattr__(self, "direction", tuple(check_direction(self.direction)))


@dataclass(frozen=True)
class _Projectors(Sequence):
    """Dense outcome projectors of a Measurement, each built when indexed."""

    meas: "Measurement"

    def __len__(self) -> int:
        return len(self.meas.outcomes)

    def __getitem__(self, k: int) -> np.ndarray:
        m = self.meas
        basis = _apply(m.basis, np.eye(m.dim, dtype=complex))
        cols = basis[:, m._outcome_of == range(len(self))[k]]
        return cols @ cols.conj().T


class Measurement:
    """Complete projective measurement: a basis change B (one 2x2 unitary on
    every qubit, or a dense 2^N x 2^N unitary) and a label for each column of
    B. Outcome k, the k-th distinct label, projects onto the span of its columns."""

    def __init__(self, labels, basis=IDENTITY_2):
        labels = np.asarray(labels).reshape(-1)
        self.dim = len(labels)
        if self.dim < 2 or self.dim & (self.dim - 1):
            raise ValidationError(f"a measurement needs 2^N labels, N >= 1, got {self.dim}")
        b = self.basis = np.asarray(basis, dtype=complex)
        if not (b.shape in ((2, 2), (self.dim, self.dim))
                and np.max(np.abs(b.conj().T @ b - np.eye(len(b)))) <= 1e-9):
            raise ValidationError(f"basis change must be a unitary of size 2 or {self.dim}")
        self.outcomes, self._outcome_of = np.unique(labels, return_inverse=True)

    @classmethod
    def from_observable(cls, a) -> "Measurement":
        """Eigenspaces of a Hermitian observable, ascending; a run of eigenvalues
        within 1e-8 of its lowest one is one outcome."""
        dec = eigh(a)
        labels = [0]
        for i, value in enumerate(dec.values[1:], 1):
            labels.append(labels[-1] if value - dec.values[labels[-1]] <= 1e-8 else i)
        return cls(labels, dec.vectors)

    @classmethod
    def parity(cls, axis: str, n_qubits: int) -> "Measurement":
        """The -1 and +1 eigenspaces of sigma_axis^(x N): in the sigma_axis
        eigenbasis of every qubit, index i has eigenvalue (-1)^popcount(i)."""
        check_axis(axis)
        check_qubits(n_qubits)
        odd = np.bitwise_count(np.arange(2 ** n_qubits)) % 2
        return cls(np.where(odd, -1, 1), BASIS_ROTATION.get(axis, IDENTITY_2))

    @classmethod
    def collective(cls, direction, n_qubits: int) -> "Measurement":
        """The eigenspaces of J_n in ascending order: popcount in the eigenbasis
        of n.sigma/2 (eigenvalues ascending) of every qubit."""
        check_qubits(n_qubits)
        return cls(np.bitwise_count(np.arange(2 ** n_qubits)),
                   eigh(j_direction(direction, 1)).vectors)

    @classmethod
    def computational(cls, n_qubits: int) -> "Measurement":
        check_qubits(n_qubits)
        return cls(np.arange(2 ** n_qubits))

    def probabilities(self, state: QuantumState) -> np.ndarray:
        """Tr(P_k rho) per outcome: populations in the basis B, binned by label."""
        return self._read(state, IDENTITY_2)[0]

    def _read(self, state: QuantumState, u: np.ndarray, gen=None) -> tuple:
        """(p, p') per outcome for the state rotated by u on every qubit: p_k =
        Tr(P_k rho), and p'_k the derivative of p_k as exp(-i t J_n) acts after
        u, at t = 0, for gen = n.sigma/2 (None: p' None)."""
        base, weight = state.noise or (state, None)
        pops, dpops = _frame_populations(base, self.basis, u, gen)
        probs, dprobs = (None if w is None else
                         np.bincount(self._outcome_of, weights=w, minlength=len(self.outcomes))
                         for w in (pops, dpops))
        if weight is not None:
            probs = weight * probs + (1.0 - weight) * np.bincount(self._outcome_of) / self.dim
            dprobs = None if dprobs is None else weight * dprobs
        return probs, dprobs

    projectors = property(_Projectors)


def _apply(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """U a for a vector or matrix a; U is u on every qubit if u is 2x2, else u."""
    return apply_local_unitary(a, u, len(a).bit_length() - 1) if u.shape == (2, 2) else u @ a


def _rotate(state: QuantumState, u: np.ndarray) -> np.ndarray:
    """U psi for a pure state, else U rho U^dagger = U (U rho)^dagger, for U =
    u on every qubit. Besides rho, a dense state holds the result and one work
    array of its size at a time."""
    n = state.n_qubits
    if state.is_pure:
        return apply_local_unitary(state.vector, u, n)
    half = apply_local_unitary(state.rho, u, n)
    turned = np.empty_like(half)
    np.conjugate(half.T, out=turned)  # C-ordered, so that no reshape copies it
    del half
    return apply_local_unitary(turned, u, n, out=turned)


def _frame_populations(base: QuantumState, b: np.ndarray, u, gen) -> tuple:
    """Populations of a pure or dense base in the frame of the basis change b,
    after u on every qubit, and with a one-qubit generator gen =
    n.sigma/2 their derivatives 2 Im (J_m rho~)_ii as the module docstring
    derives them; without gen, None."""
    if b.shape == (2, 2):
        bh = b.conj().T
        rot = _rotate(base, bh @ u)
        pops = np.abs(rot) ** 2 if base.is_pure else np.diagonal(rot).real
        if gen is None:
            return pops, None
        terms = direction_terms(_qubit_direction(bh @ gen @ b), base.n_qubits)
        if base.is_pure:
            return pops, 2.0 * (rot.conj() * apply_terms(terms, rot)).imag
        rows = np.arange(len(rot))
        return pops, 2.0 * sum(values * rot[cols, rows] for cols, values in terms).imag
    rot = _rotate(base, u)
    terms = None if gen is None else direction_terms(_qubit_direction(gen), base.n_qubits)
    if base.is_pure:
        cols = [rot] if gen is None else [rot, apply_terms(terms, rot)]
        phi = b.conj().T @ np.stack(cols, axis=1)
        pops = np.abs(phi[:, 0]) ** 2
        return pops, None if gen is None else 2.0 * (phi[:, 0].conj() * phi[:, 1]).imag
    y = rot @ b  # (B^dagger X B)_ii = sum_j conj(B_ji) (X B)_ji
    pops = np.einsum("ji,ji->i", b.conj(), y).real
    if gen is None:
        return pops, None
    return pops, 2.0 * np.einsum("ji,ji->i", b.conj(), apply_terms(terms, y)).imag


def _qubit_direction(g: np.ndarray) -> np.ndarray:
    """m with g = m.sigma/2, for g a traceless Hermitian 2x2 matrix. With g =
    b^dagger (n.sigma/2) b, J_n carried into the frame of b on every qubit is J_m."""
    return np.array([2.0 * g[1, 0].real, 2.0 * g[1, 0].imag, (g[0, 0] - g[1, 1]).real])


def evolve(state: QuantumState, setting: PhaseSetting) -> QuantumState:
    """Conjugate by exp(-i theta J_n) = exp(-i theta n.sigma/2)^(x N); spectrum-preserving."""
    return _conjugate(state, herm_exp(j_direction(setting.direction, 1), -setting.theta))


def _conjugate(state: QuantumState, u: np.ndarray) -> QuantumState:
    """U rho U^dagger for U = u on every qubit; a white-noise mix keeps its weight."""
    base, p = state.noise or (state, None)
    out = _rotate(base, u)
    out = (_pure_state(out, state.n_qubits) if base.is_pure
           else QuantumState((out + out.conj().T) / 2.0, state.n_qubits))
    return out if p is None else QuantumState(None, state.n_qubits, noise=(out, p))


def classical_fisher_report(state: QuantumState, setting: PhaseSetting,
                            meas: Measurement) -> dict:
    """Classical Fisher information sum_k p_k'^2 / p_k of meas on
    exp(-i theta J_n) rho exp(i theta J_n), with the exact derivative p_k' =
    dp_k/dtheta; outcomes with p_k below P_FLOOR are excluded and counted."""
    if meas.dim != state.dim:
        raise ValidationError("measurement dimension does not match the state")
    gen = j_direction(setting.direction, 1)
    probs, dprobs = meas._read(state, herm_exp(gen, -setting.theta), gen)
    keep = probs >= P_FLOOR
    return {
        "value": float(np.sum(dprobs[keep] ** 2 / probs[keep])),
        "excluded_outcomes": int(np.sum(~keep)),
        "probabilities": probs,
        "derivatives": dprobs,
    }


def classical_fisher(state: QuantumState, setting: PhaseSetting, meas: Measurement) -> float:
    return classical_fisher_report(state, setting, meas)["value"]
