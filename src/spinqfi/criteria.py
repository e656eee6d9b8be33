"""Entanglement bounds on collective-spin QFI and depth certification.

One table, ladder(N), states every bound once, in report order, and its
docstring gives each formula: separable, any-state, k-producible,
biseparable, unentangled-particle and variance-floor rungs. evaluate_all,
spectral_criteria and depth_lower_bound all read it.

The spectral forms replace the axis values with the trace and largest
eigenvalue of the QFI matrix, which makes them invariant under collective
single-qubit rotations. Violating a k-producible rung certifies
(k+1)-particle entanglement (separable is k = 1), so the depth is 1 + the
largest violated k and the witness is that row: evaluate_all reads the
certificate off the rows it reports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import ValidationError
from .matcore import check_integer
from .qfi import QfiMatrix, collective_variances, qfi_matrix
from .states import QuantumState

TOL_VIOLATION = 1e-9


@dataclass(frozen=True)
class CriterionReport:
    """One bound evaluated against one state.

    direction is "above" when exceeding the bound signals the violation and
    "below" for floor-type criteria; margin is oriented so that
    violated == (margin > tol) either way.
    """

    criterion_id: str
    bound: float
    value: float
    margin: float
    violated: bool
    implication: Optional[str] = None
    direction: str = "above"


@dataclass(frozen=True)
class DepthCertificate:
    depth_lower_bound: int
    witnessing_criterion: str
    witness_value: float


@dataclass(frozen=True)
class Rung:
    """One bound of the ladder, before it meets a state.

    statistic names the value the bound caps: "sum" and "peak" of the Fisher
    triple, "trace" and "top" eigenvalue of the QFI matrix, or the collective
    "variance" sum. k is the depth rung a violation certifies (k + 1 particles
    entangled) and 0 for rows outside the depth ladder.
    """

    criterion_id: str
    bound: float
    statistic: str
    implication: Optional[str]
    k: int = 0
    direction: str = "above"

    def evaluate(self, value: float, tol: float) -> CriterionReport:
        if not 0.0 <= tol < math.inf:  # False for NaN too
            raise ValidationError(f"tol must be nonnegative and finite, got {tol}")
        margin = (value - self.bound) if self.direction == "above" else (self.bound - value)
        violated = margin > tol
        return CriterionReport(self.criterion_id, float(self.bound), float(value), float(margin),
                               violated, self.implication if violated else None, self.direction)


def _check_n(n_qubits: int) -> int:
    n = check_integer(n_qubits, "n_qubits")
    if n < 1:
        raise ValidationError("n_qubits must be positive")
    return n


def ladder(n_qubits: int) -> List[Rung]:
    """Every bound for N qubits, in report order; each formula is stated here once.

    * k-producible states:   with N = n k + r (divmod), F_Q[J_l] <= n k^2 + r^2
                             and sum_l F_Q <= n c(k) + c(r), where c(m) =
                             m(m+2) caps the sum of one m-qubit block, except
                             that one pure qubit reaches only c(1) = 2 (c(0) = 0)
    * separable states:      the k = 1 pair: F_Q[J_l] <= N and sum_l F_Q <= 2N
    * biseparable states:    the k = N-1 pair: F_Q[J_l] <= (N-1)^2 + 1 and
                             sum_l F_Q <= N^2 + 1, or 2 and 4 at N = 2, where
                             biseparable is separable
    * any state:             sum_l F_Q <= c(N): N(N+2), or 2 for one qubit
    * >= M unentangled:      sum_l F_Q <= M + (N-M)(N-M+2)
    * variance floor:        separable states keep sum_l (Delta J_l)^2 >= N/2

    The separable, per-axis k-producible, biseparable and spectral rows all
    read the one k-producible pair. Only the spectral rungs carry k > 0:
    trace == sum and top >= peak, so up to rounding they fire whenever a
    per-axis form of the same rung does.
    """
    n = _check_n(n_qubits)

    def ceiling(m: int) -> int:
        return 2 if m == 1 else m * (m + 2)

    def pair(k: int) -> Tuple[float, float]:
        blocks, rem = divmod(n, k)
        return float(blocks * k * k + rem * rem), float(blocks * ceiling(k) + ceiling(rem))

    sep_single, sep_sum = pair(1)
    kprod = [(k, *pair(k)) for k in range(2, n)]
    rungs = [Rung("separable_sum", sep_sum, "sum", "entangled"),
             Rung("separable_single", sep_single, "peak", "entangled"),
             Rung("sum_ceiling", float(ceiling(n)), "sum", None)]
    for k, single, total in kprod:
        implication = f"not_{k}_producible"
        rungs += [Rung(f"kprod_single_k{k}", single, "peak", implication),
                  Rung(f"kprod_sum_k{k}", total, "sum", implication)]
    if n >= 2:
        single, total = pair(n - 1)
        rungs += [Rung("biseparable_single", single, "peak", "genuine_multipartite"),
                  Rung("biseparable_sum", total, "sum", "genuine_multipartite")]
    rungs += [Rung(f"unentangled_m{m}", float(m + (n - m) * (n - m + 2)), "sum",
                   f"fewer_than_{m}_unentangled") for m in range(1, n + 1)]
    rungs += [_variance_rung(n),
              Rung("spectral_trace_separable", sep_sum, "trace", "entangled", k=1),
              Rung("spectral_max_separable", sep_single, "top", "entangled", k=1)]
    for k, single, total in kprod:
        implication = "genuine_multipartite" if k == n - 1 else f"not_{k}_producible"
        rungs += [Rung(f"spectral_trace_kprod_k{k}", total, "trace", implication, k),
                  Rung(f"spectral_max_kprod_k{k}", single, "top", implication, k)]
    return rungs


def _variance_rung(n: int) -> Rung:
    return Rung("variance_floor", n / 2.0, "variance", "entangled", direction="below")


def _qfi_statistics(qmat: QfiMatrix) -> dict:
    """Every statistic except the variance sum, which needs the state."""
    triple = qmat.fisher_triple
    return {"sum": float(triple.sum()), "peak": float(triple.max()),
            "trace": qmat.trace, "top": float(qmat.eigenvalues[-1])}


def variance_criterion(state: QuantumState, tol: float = TOL_VIOLATION) -> CriterionReport:
    """Flag entanglement when the collective variance sum drops below N/2.

    The sum runs in x, y, z order over `qfi.collective_variances`."""
    total = sum(collective_variances(state))
    return _variance_rung(state.n_qubits).evaluate(total, tol)


def spectral_criteria(qmat: QfiMatrix, n_qubits: int, k: int,
                      tol: float = TOL_VIOLATION) -> List[CriterionReport]:
    """Rotation-invariant forms: the separable rungs and the k-producible rung."""
    n, k = _check_n(n_qubits), check_integer(k, "k")
    if not 1 <= k < n:
        raise ValidationError(f"k={k} out of range 1..{n - 1}")
    stats = _qfi_statistics(qmat)
    return [rung.evaluate(stats[rung.statistic], tol)
            for rung in ladder(n) if rung.k in (1, k)]


def _certificate(pairs) -> DepthCertificate:
    """1 + the largest k of a violated (rung, row) pair, witnessed by that row;
    at that k the larger margin wins, and a tie goes to the max-eigenvalue form."""
    hits = [(rung.k, rep.margin, rung.statistic == "top", rep)
            for rung, rep in pairs if rung.k > 0 and rep.violated]
    if not hits:
        return DepthCertificate(1, "none", 0.0)
    k, _, _, rep = max(hits, key=lambda hit: hit[:3])
    return DepthCertificate(k + 1, rep.criterion_id, rep.value)


def depth_lower_bound(state: QuantumState, tol: float = TOL_VIOLATION,
                      qmat: Optional[QfiMatrix] = None) -> DepthCertificate:
    """Certified entanglement depth from the k > 0 rungs alone, no variance row."""
    if qmat is None:
        qmat = qfi_matrix(state)
    stats = _qfi_statistics(qmat)
    return _certificate((rung, rung.evaluate(stats[rung.statistic], tol))
                        for rung in ladder(state.n_qubits) if rung.k > 0)


def evaluate_all(state: QuantumState, tol: float = TOL_VIOLATION,
                 qmat: Optional[QfiMatrix] = None
                 ) -> Tuple[List[CriterionReport], DepthCertificate]:
    """Every rung of the ladder, in order, plus the depth certificate read off them."""
    if qmat is None:
        qmat = qfi_matrix(state)
    stats = _qfi_statistics(qmat)
    rungs = ladder(state.n_qubits)
    reports = [variance_criterion(state, tol) if rung.statistic == "variance"
               else rung.evaluate(stats[rung.statistic], tol)
               for rung in rungs]
    return reports, _certificate(zip(rungs, reports))


def unentangled_summary(reports: List[CriterionReport]) -> Optional[dict]:
    """Smallest and largest violated M over the unentangled-particle sweep.

    The largest violated M gives the literal "fewer than M unentangled"
    reading; because the bound decreases with M the smallest violated M is
    the informative one, so both are reported.
    """
    violated = []
    for rep in reports:
        if rep.criterion_id.startswith("unentangled_m") and rep.violated:
            violated.append(int(rep.criterion_id[len("unentangled_m"):]))
    if not violated:
        return None
    return {"smallest_violated_m": min(violated), "largest_violated_m": max(violated)}
