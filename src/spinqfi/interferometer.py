"""Phase evolution and classical Fisher information, which `spinqfi crb` checks
against the quantum Cramer-Rao bound.

The phase map rho -> exp(-i theta J_n) rho exp(+i theta J_n) rotates each
qubit and a measurement is a basis change plus outcome labels, so no 2^N x 2^N
projector is formed. A pure state is rotated as a vector. A white-noise mix
(states.white_noise_mix, a base and one weight p) is rotated as its base and
keeps p, since 1/d is rotation invariant with populations 1/d; no dense rho is
built for it, and over a pure base its F_Q is the base's scaled
(qfi.qfi_direction), so `crb` on such a mix costs what the pure base costs.
Classical Fisher information comes from central finite differences of the
outcome probabilities; outcomes below a probability floor are excluded
(their derivative contribution is dropped and counted).
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .collective import IDENTITY_2, check_axis, check_direction, j_direction
from .errors import ValidationError
from .matcore import check_qubits, eigh, herm_exp
from .states import BASIS_ROTATION, QuantumState, _pure_state, apply_local_unitary

FD_STEP = 1e-4
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
        base, p = state.noise or (state, None)
        out = _rotate(base, self.basis.conj().T)
        pops = np.abs(out) ** 2 if base.is_pure else np.diagonal(out).real
        probs = np.bincount(self._outcome_of, weights=pops, minlength=len(self.outcomes))
        if p is not None:
            probs = p * probs + (1.0 - p) * np.bincount(self._outcome_of) / self.dim
        return probs

    projectors = property(_Projectors)


def _apply(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """U a for a vector or matrix a; U is u on every qubit if u is 2x2, else u."""
    return apply_local_unitary(a, u, len(a).bit_length() - 1) if u.shape == (2, 2) else u @ a


def _rotate(state: QuantumState, u: np.ndarray) -> np.ndarray:
    """U psi for a pure state, else U rho U^dagger, for U as in _apply."""
    if state.is_pure:
        return _apply(u, state.vector)
    return _apply(u, _apply(u, state.rho).conj().T)


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
                            meas: Measurement, h: float = FD_STEP) -> dict:
    """Classical Fisher information with finite-difference diagnostics; the
    central-difference step h must be positive and finite."""
    if not 0.0 < h < math.inf:  # False for NaN too
        raise ValidationError(f"finite-difference step h must be positive and finite, got {h}")
    if meas.dim != state.dim:
        raise ValidationError("measurement dimension does not match the state")
    shifted = (replace(setting, theta=setting.theta + dt) for dt in (0.0, -h, h))
    p_mid, p_lo, p_hi = (meas.probabilities(evolve(state, s)) for s in shifted)
    dp = (p_hi - p_lo) / (2.0 * h)
    keep = p_mid >= P_FLOOR
    value = float(np.sum(dp[keep] ** 2 / p_mid[keep]))
    return {
        "value": value,
        "excluded_outcomes": int(np.sum(~keep)),
        "probabilities": p_mid,
        "step": h,
    }


def classical_fisher(state: QuantumState, setting: PhaseSetting, meas: Measurement,
                     h: float = FD_STEP) -> float:
    return classical_fisher_report(state, setting, meas, h)["value"]

