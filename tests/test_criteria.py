import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinqfi import criteria, qfi, states
from spinqfi.errors import ValidationError

import helpers


def singlet_pairs(pairs: int):
    s = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2)
    v = np.ones(1, dtype=complex)
    for _ in range(pairs):
        v = np.kron(v, s)
    return states.from_matrix(np.outer(v, v.conj()), 2 * pairs)


# ------------------------------------------------------------ bound tables

def bounds(n):
    return {rung.criterion_id: rung.bound for rung in criteria.ladder(n)}


def test_separable_bounds():
    assert bounds(4)["separable_sum"] == 8.0
    assert bounds(6)["separable_sum"] == bounds(6)["spectral_trace_separable"] == 12.0
    assert bounds(6)["separable_single"] == bounds(6)["spectral_max_separable"] == 6.0
    assert bounds(6)["sum_ceiling"] == 48.0


@pytest.mark.parametrize("n,k,single,total", [
    (6, 2, 12.0, 24.0),
    (7, 2, 13.0, 26.0),
    (6, 3, 18.0, 30.0),
    (6, 4, 20.0, 32.0),
    (6, 5, 26.0, 37.0),
    (4, 3, 10.0, 17.0),
    (8, 4, 32.0, 48.0),
])
def test_producibility_bound_table(n, k, single, total):
    b = bounds(n)
    assert b[f"kprod_single_k{k}"] == b[f"spectral_max_kprod_k{k}"] == single
    assert b[f"kprod_sum_k{k}"] == b[f"spectral_trace_kprod_k{k}"] == total


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_biseparable_equals_single_block_maximization(n):
    # maximize the one-block k-producible bounds over k in [ceil(N/2), N-1];
    # a block of one qubit reaches a sum of 2, any larger block k(k+2)
    def ceiling(m):
        return 2 if m == 1 else m * (m + 2)
    best_single = best_sum = 0.0
    for k in range(math.ceil(n / 2), n):
        rem = n - k
        best_single = max(best_single, k ** 2 + rem ** 2)
        best_sum = max(best_sum, ceiling(k) + ceiling(rem))
    b = bounds(n)
    assert (b["biseparable_single"], b["biseparable_sum"]) == (best_single, best_sum)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_biseparable_equals_top_producibility_rung(n):
    # for N >= 3 the maximum sits at k = N-1, where floor packing has one block
    b = bounds(n)
    assert (b["biseparable_single"], b["biseparable_sum"]) == (
        b[f"kprod_single_k{n - 1}"], b[f"kprod_sum_k{n - 1}"])


def test_biseparable_frozen_values():
    for n, expected in ((6, (26.0, 37.0)), (4, (10.0, 17.0))):
        assert (bounds(n)["biseparable_single"], bounds(n)["biseparable_sum"]) == expected


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_bounds_monotone_in_k(n):
    # the depth rungs, k = 1 (separable) to N - 1, in table order
    for statistic in ("trace", "top"):
        rows = [r for r in criteria.ladder(n) if r.k > 0 and r.statistic == statistic]
        assert [r.k for r in rows] == list(range(1, n))
        assert all(b.bound >= a.bound for a, b in zip(rows, rows[1:]))


def test_unentangled_bound_formula():
    assert bounds(6)["unentangled_m1"] == 1 + 5 * 7
    assert bounds(6)["unentangled_m6"] == 6.0
    assert bounds(4)["unentangled_m2"] == 2 + 2 * 4
    assert [i for i in bounds(4) if i.startswith("unentangled_m")] == [
        "unentangled_m1", "unentangled_m2", "unentangled_m3", "unentangled_m4"]


def test_bound_argument_validation():
    with pytest.raises(ValidationError, match="n_qubits must be positive"):
        criteria.ladder(0)
    # k-producible rows exist for k = 2 .. N-1 only, biseparable ones for N >= 2
    assert sorted(i for i in bounds(4) if i.startswith("kprod_")) == [
        "kprod_single_k2", "kprod_single_k3", "kprod_sum_k2", "kprod_sum_k3"]
    assert not any(i.startswith("biseparable_") for i in bounds(1))
    q = qfi.qfi_matrix(states.ghz(6))
    assert criteria.ladder(np.int64(6)) == criteria.ladder(6)
    assert criteria.spectral_criteria(q, np.int64(6), np.int64(2)) \
        == criteria.spectral_criteria(q, 6, 2)


@pytest.mark.parametrize("call", [
    lambda q: criteria.ladder(2.5),
    lambda q: criteria.ladder(True),
    lambda q: criteria.ladder(6.0),
    lambda q: criteria.spectral_criteria(q, 6, 2.5),
    lambda q: criteria.spectral_criteria(q, 6, True),
    lambda q: criteria.spectral_criteria(q, 6.5, 2),
], ids=["n=2.5", "n=True", "n=6.0", "k=2.5", "k=True", "spectral-n=6.5"])
def test_sizes_must_be_integers(call):
    # int() would truncate these: ladder(2.5) would be ladder(2), and k = 2.5
    # would return only the two k = 1 rows
    with pytest.raises(ValidationError, match="must be an integer"):
        call(qfi.qfi_matrix(states.ghz(6)))


# ------------------------------------------------------------ variance floor

@pytest.mark.parametrize("tol", [-100.0, -1.0, math.nan, math.inf])
def test_library_tolerance_must_be_nonnegative_and_finite(tol):
    # unchecked, a negative tol certifies depth 3 for the completely mixed
    # state and a NaN one reads depth 1; every entry point evaluates a rung
    for call in (lambda: criteria.depth_lower_bound(states.completely_mixed(3), tol=tol),
                 lambda: criteria.evaluate_all(states.product_bloch((1, 0, 0), 4), tol=tol),
                 lambda: criteria.variance_criterion(states.ghz(3), tol=tol),
                 lambda: criteria.spectral_criteria(qfi.qfi_matrix(states.ghz(3)), 3, 2, tol=tol)):
        with pytest.raises(ValidationError, match="tol must be nonnegative and finite"):
            call()


def test_variance_floor_detects_singlet_pairs():
    rep = criteria.variance_criterion(singlet_pairs(2))
    assert rep.criterion_id == "variance_floor"
    assert rep.direction == "below"
    assert rep.bound == 2.0
    assert rep.value == pytest.approx(0.0, abs=1e-10)
    assert rep.violated and rep.implication == "entangled"
    assert rep.margin == pytest.approx(2.0, abs=1e-10)


def test_variance_floor_passes_unpolarized_mixture():
    rep = criteria.variance_criterion(states.completely_mixed(4))
    assert rep.value == pytest.approx(3.0, abs=1e-10)
    assert not rep.violated and rep.implication is None


def test_variance_floor_sits_on_boundary_for_products():
    rep = criteria.variance_criterion(states.product_bloch((0, 0, 1.0), 4))
    assert rep.value == pytest.approx(rep.bound, abs=1e-10)
    assert not rep.violated


# ------------------------------------------------------------ spectral forms

def test_spectral_criteria_ids_and_implications():
    st = states.ghz(4, "z")
    reps = criteria.spectral_criteria(qfi.qfi_matrix(st), 4, 3)
    ids = [r.criterion_id for r in reps]
    assert ids == ["spectral_trace_separable", "spectral_max_separable",
                   "spectral_trace_kprod_k3", "spectral_max_kprod_k3"]
    by_id = {r.criterion_id: r for r in reps}
    assert by_id["spectral_trace_kprod_k3"].violated  # 24 > 17
    assert by_id["spectral_trace_kprod_k3"].implication == "genuine_multipartite"
    reps2 = criteria.spectral_criteria(qfi.qfi_matrix(st), 4, 2)
    assert reps2[2].criterion_id == "spectral_trace_kprod_k2"
    assert reps2[2].violated and reps2[2].implication == "not_2_producible"
    assert [r.criterion_id for r in criteria.spectral_criteria(qfi.qfi_matrix(st), 4, 1)] \
        == ids[:2]
    with pytest.raises(ValidationError):
        criteria.spectral_criteria(qfi.qfi_matrix(st), 4, 4)


def test_spectral_forms_invariant_under_basis_choice():
    # same state expressed along different axes certifies identically
    for basis in ("x", "y"):
        a = criteria.spectral_criteria(qfi.qfi_matrix(states.dicke(6, 3, "z")), 6, 5)
        b = criteria.spectral_criteria(qfi.qfi_matrix(states.dicke(6, 3, basis)), 6, 5)
        for ra, rb in zip(a, b):
            assert ra.violated == rb.violated
            assert ra.value == pytest.approx(rb.value, abs=1e-9)


def test_spectral_forms_invariant_under_random_local_rotation():
    rng = np.random.default_rng(77)
    base = states.dicke(6, 3, "z")
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(g)
    big = helpers.kron_chain([u] * 6)
    rotated = states.from_matrix(big @ base.rho @ big.conj().T, 6)
    a = criteria.spectral_criteria(qfi.qfi_matrix(base), 6, 5)
    b = criteria.spectral_criteria(qfi.qfi_matrix(rotated), 6, 5)
    for ra, rb in zip(a, b):
        assert ra.violated == rb.violated
        assert ra.value == pytest.approx(rb.value, abs=1e-8)


@pytest.mark.parametrize("n", [3, 4])
def test_pure_state_joint_coverage(n):
    # entangled pure states either push the Fisher sum above 2N or pull the
    # variance sum below N/2; only the knife-edge variance value escapes both
    rng = np.random.default_rng(4100 + n)
    for _ in range(10):
        st = states.from_matrix(helpers.haar_pure(n, rng), n)
        reports, _ = criteria.evaluate_all(st)
        by_id = {r.criterion_id: r for r in reports}
        var_rep = by_id["variance_floor"]
        if abs(var_rep.value - var_rep.bound) <= 1e-9:
            continue
        assert by_id["separable_sum"].violated or var_rep.violated


# ------------------------------------------------------------ depth ladder

@pytest.mark.parametrize("state,expected", [
    (states.ghz(6, "z"), 6),
    (states.dicke(6, 3, "z"), 6),
    (states.excited_dicke(6, "z"), 5),
    (states.ghz(4, "z"), 4),
    (states.product_bloch((0, 0, 1.0), 4), 1),
    (states.completely_mixed(4), 1),
], ids=["ghz6", "dicke63", "excited6", "ghz4", "product", "mixed"])
def test_depth_frozen_values(state, expected):
    cert = criteria.depth_lower_bound(state)
    assert cert.depth_lower_bound == expected


def test_depth_witness_detail_for_balanced_dicke():
    cert = criteria.depth_lower_bound(states.dicke(6, 3, "z"))
    assert cert.witnessing_criterion == "spectral_trace_kprod_k5"
    assert cert.witness_value == pytest.approx(48.0, abs=1e-9)


def test_depth_trivial_for_unentangled_states():
    cert = criteria.depth_lower_bound(states.completely_mixed(3))
    assert cert.depth_lower_bound == 1
    assert cert.witnessing_criterion == "none"


def test_depth_witness_at_k1_is_a_row():
    # one-axis twisting lifts the top QFI eigenvalue past N long before the
    # trace passes 2N, so the max-eigenvalue form witnesses the k = 1 rung
    n = 6
    state = states.from_matrix(helpers.one_axis_twisted(n, 0.1), n)
    reports, cert = criteria.evaluate_all(state)
    assert cert.depth_lower_bound == 2
    assert cert.witnessing_criterion == "spectral_max_separable"
    assert cert.witness_value == pytest.approx(9.5728, abs=1e-4)
    row = next(r for r in reports if r.criterion_id == cert.witnessing_criterion)
    assert row.violated and row.value == cert.witness_value


def _rung_k(criterion_id, n):
    """Largest k whose k-producible N-qubit states all respect the row; the
    separable rows and the variance floor hold for k = 1 only."""
    if criterion_id == "sum_ceiling":
        return n
    if criterion_id.startswith("biseparable_"):
        return n - 1
    if "kprod_" in criterion_id:
        return int(criterion_id.rsplit("_k", 1)[1])
    return 1


def test_rung_parser_reads_every_kproducible_id():
    ids = [r.criterion_id for r in criteria.ladder(6)]
    for k in range(2, 6):
        for fmt in ("kprod_single_k{}", "kprod_sum_k{}",
                    "spectral_trace_kprod_k{}", "spectral_max_kprod_k{}"):
            assert fmt.format(k) in ids and _rung_k(fmt.format(k), 6) == k
    assert _rung_k("kprod_sum_k3", 6) == 3
    assert _rung_k("biseparable_sum", 6) == 5
    assert _rung_k("spectral_trace_separable", 6) == 1


@settings(derandomize=True, max_examples=100, deadline=None)
@given(n=st.integers(2, 4), mixed=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_depth_is_one_plus_largest_violated_spectral_rung(n, mixed, seed):
    rng = np.random.default_rng(seed)
    rho = helpers.ginibre_mixed(n, rng) if mixed else helpers.haar_pure(n, rng)
    reports, cert = criteria.evaluate_all(states.from_matrix(rho, n))
    hit = {r.criterion_id: _rung_k(r.criterion_id, n) for r in reports
           if r.violated and r.criterion_id.startswith("spectral_")}
    assert cert.depth_lower_bound == 1 + max(hit.values(), default=0)
    if cert.depth_lower_bound == 1:
        assert cert.witnessing_criterion == "none"
    else:
        assert hit.get(cert.witnessing_criterion) == cert.depth_lower_bound - 1


def test_noise_threshold_straddles_biseparable_sum():
    p_star = (1147 + math.sqrt(1542937)) / 3072
    base = states.ghz(6, "z")
    for shift, expect in ((1e-3, True), (-1e-3, False)):
        noisy = states.white_noise_mix(base, p_star + shift)
        reports, _ = criteria.evaluate_all(noisy)
        rep = next(r for r in reports if r.criterion_id == "biseparable_sum")
        assert rep.bound == 37.0
        assert rep.violated is expect, (shift, rep.value)
        assert abs(rep.value - 37.0) < 0.06


# ------------------------------------------------------------ evaluate_all

def expected_rows(n):
    return 3 + 2 * (n - 2) + 2 + n + 1 + 2 + 2 * (n - 2)


def test_evaluate_all_row_count_and_order():
    reports, cert = criteria.evaluate_all(states.ghz(4, "z"))
    assert len(reports) == expected_rows(4) == 20
    ids = [r.criterion_id for r in reports]
    assert ids == [
        "separable_sum", "separable_single", "sum_ceiling",
        "kprod_single_k2", "kprod_sum_k2", "kprod_single_k3", "kprod_sum_k3",
        "biseparable_single", "biseparable_sum",
        "unentangled_m1", "unentangled_m2", "unentangled_m3", "unentangled_m4",
        "variance_floor",
        "spectral_trace_separable", "spectral_max_separable",
        "spectral_trace_kprod_k2", "spectral_max_kprod_k2",
        "spectral_trace_kprod_k3", "spectral_max_kprod_k3",
    ]
    assert cert.depth_lower_bound == 4


@pytest.mark.parametrize("state", [
    states.ghz(4, "z"), states.dicke(6, 3, "z"), states.completely_mixed(3),
    states.white_noise_mix(states.ghz(5, "x"), 0.6), states.excited_dicke(6, "y"),
], ids=["ghz", "dicke", "mixed", "noisy_ghz", "excited_dicke"])
def test_evaluate_all_reads_the_certificate_off_its_rows(state, monkeypatch):
    expected = criteria.depth_lower_bound(state)

    def recomputed(*args, **kwargs):
        raise AssertionError("evaluate_all derived the certificate a second time")
    monkeypatch.setattr(criteria, "depth_lower_bound", recomputed)
    reports, cert = criteria.evaluate_all(state)
    assert cert == expected
    if cert.witnessing_criterion != "none":
        row = next(r for r in reports if r.criterion_id == cert.witnessing_criterion)
        assert row.violated and row.value == cert.witness_value


def test_evaluate_all_row_count_six_qubits():
    reports, _ = criteria.evaluate_all(states.dicke(6, 3, "z"))
    assert len(reports) == expected_rows(6) == 30


def test_sum_ceiling_saturated_not_violated():
    reports, _ = criteria.evaluate_all(states.ghz(6, "z"))
    rep = next(r for r in reports if r.criterion_id == "sum_ceiling")
    assert rep.bound == 48.0
    assert rep.value == pytest.approx(48.0, abs=1e-9)
    assert not rep.violated


def test_sum_ceiling_is_met_by_one_qubit():
    # one pure qubit reaches F_x + F_y + F_z = 2, not N(N+2) = 3
    reports, _ = criteria.evaluate_all(states.ghz(1, "z"))
    rep = next(r for r in reports if r.criterion_id == "sum_ceiling")
    assert rep.bound == 2.0
    assert rep.value == pytest.approx(2.0, abs=1e-12)
    assert not rep.violated


def test_unentangled_summary_reads_sweep():
    reports, _ = criteria.evaluate_all(states.ghz(4, "z"))
    assert criteria.unentangled_summary(reports) == {
        "smallest_violated_m": 1, "largest_violated_m": 4}
    quiet, _ = criteria.evaluate_all(states.completely_mixed(4))
    assert criteria.unentangled_summary(quiet) is None


def test_violation_set_matches_across_ghz_bases():
    ref, _ = criteria.evaluate_all(states.ghz(6, "z"))
    alt, _ = criteria.evaluate_all(states.ghz(6, "x"))
    flags_ref = {r.criterion_id: r.violated for r in ref}
    flags_alt = {r.criterion_id: r.violated for r in alt}
    assert flags_ref == flags_alt


# ------------------------------------------------------------ no false alarms

SEPARABLE_SAFE_PREFIXES = (
    "separable_", "kprod_", "biseparable_", "variance_floor", "spectral_",
)
# unentangled_m rows are excluded: that sum bound is reported as printed and
# is known to fire on polarized product states.


def olated(reports, prefixes):
    return [r.criterion_id for r in reports
            if r.violated and r.criterion_id.startswith(prefixes)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_separable_mixtures_violate_nothing(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(10):
        rho = helpers.separable_mixture(n, rng)
        reports, cert = criteria.evaluate_all(states.from_matrix(rho, n))
        assert olated(reports, SEPARABLE_SAFE_PREFIXES) == []
        assert cert.depth_lower_bound == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
def test_kproducible_mixtures_respect_their_rung(k):
    # Every row but the unentangled_m sweep, for N = k+1 .. 8: k = 1 draws
    # separable mixtures and k = N-1 biseparable ones. The unentangled_m rows
    # fire on states that do have M unentangled qubits (the 4-qubit product
    # |0000> violates unentangled_m3 and unentangled_m4), and mending them
    # moves the analyze output, so they wait for that change.
    for n in range(k + 1, 9):
        rng = np.random.default_rng([2000, n, k])
        for _ in range(4):
            rho = (helpers.separable_mixture(n, rng) if k == 1
                   else helpers.kproducible_mixture(n, k, rng))
            reports, cert = criteria.evaluate_all(states.from_matrix(rho, n))
            assert cert.depth_lower_bound <= k
            for rep in reports:
                if not rep.criterion_id.startswith("unentangled_m"):
                    assert not (rep.violated and _rung_k(rep.criterion_id, n) >= k), \
                        (n, rep.criterion_id)


# ------------------------------------------------------------ tightness

def _block_state(*kets):
    v = helpers.kron_chain(kets).ravel()
    return states.from_matrix(np.outer(v, v.conj()), int(math.log2(v.size)))


ZERO = np.array([1.0, 0.0], dtype=complex)
PLUS_X = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)


def _ghz_triple(k):
    """(F_x, F_y, F_z) of GHZ_k: GHZ_1 is |+x>, GHZ_2 a Bell pair."""
    return {1: (0, 1, 1), 2: (4, 0, 4)}.get(k, (k, k, k * k))


def _ghz_block_witnesses():
    """GHZ_k^(x n) (x) GHZ_r, N = n k + r, for N = 2..8 and k = 1..N, with the
    rows it meets: its Fisher sum and peak are the k-producible optimum, the
    r = 1 tail being one pure qubit. k = 1 is the pure product |+x>^N, k = N
    is GHZ_N. At N = 2 biseparable is separable, and the product meets the
    biseparable rows at the separable values 2 and 4."""
    cases = []
    for n in range(2, 9):
        for k in range(1, n + 1):
            blocks, rem = divmod(n, k)
            sizes = [k] * blocks + ([rem] if rem else [])
            triple = tuple(map(sum, zip(*map(_ghz_triple, sizes))))
            peak, total = float(max(triple)), float(sum(triple))
            if k == 1:
                met = {"separable_single": peak, "separable_sum": total,
                       "spectral_max_separable": peak, "spectral_trace_separable": total,
                       "variance_floor": n / 2}
            elif k < n:
                met = {f"kprod_single_k{k}": peak, f"kprod_sum_k{k}": total,
                       f"spectral_max_kprod_k{k}": peak, f"spectral_trace_kprod_k{k}": total}
            else:
                met = {"sum_ceiling": total}
            if k == n - 1:
                met.update(biseparable_single=peak, biseparable_sum=total)
            cases.append(pytest.param([helpers.ghz_ket(s) for s in sizes], triple, met,
                                      id=f"n{n}-ghz{k}"))
    return cases


@pytest.mark.parametrize("kets,triple,met", [
    pytest.param((helpers.ghz_ket(3), helpers.ghz_ket(3)), (6, 6, 18),
                 {"kprod_single_k3": 18.0, "kprod_sum_k3": 30.0}, id="ghz3-ghz3"),
    pytest.param((helpers.ghz_ket(5), ZERO), (6, 6, 25), {"biseparable_sum": 37.0},
                 id="ghz5-zero"),
    pytest.param((helpers.ghz_ket(5), PLUS_X), (5, 6, 26),
                 {"biseparable_single": 26.0, "biseparable_sum": 37.0}, id="ghz5-plusx"),
] + _ghz_block_witnesses())
def test_bounds_are_attained_by_ghz_blocks(kets, triple, met):
    state = _block_state(*kets)
    np.testing.assert_allclose(qfi.fisher_triple(state), triple, atol=1e-9)
    reports, _ = criteria.evaluate_all(state)
    by_id = {r.criterion_id: r for r in reports}
    for criterion_id, bound in met.items():
        rep = by_id[criterion_id]
        assert rep.bound == bound
        assert rep.value == pytest.approx(bound, abs=1e-9)
        assert not rep.violated
