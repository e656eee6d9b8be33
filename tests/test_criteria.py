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

def test_separable_bounds():
    assert criteria.bound_separable_sum(4) == 8.0
    assert criteria.bound_separable_sum(6) == 12.0
    assert criteria.bound_separable_single(6) == 6.0
    assert criteria.bound_max_sum(6) == 48.0


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
    assert criteria.bound_kprod_single(n, k) == single
    assert criteria.bound_kprod_sum(n, k) == total


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_biseparable_equals_single_block_maximization(n):
    # maximize the one-block k-producible bounds over k in [ceil(N/2), N-1]
    best_single = best_sum = 0.0
    for k in range(math.ceil(n / 2), n):
        rem = n - k
        best_single = max(best_single, k ** 2 + rem ** 2)
        best_sum = max(best_sum, k * (k + 2) + (2 if rem == 1 else rem * (rem + 2)))
    assert criteria.bounds_biseparable(n) == (best_single, best_sum)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_biseparable_equals_top_producibility_rung(n):
    # for N >= 3 the maximum sits at k = N-1, where floor packing has one block
    assert criteria.bounds_biseparable(n) == (
        criteria.bound_kprod_single(n, n - 1),
        criteria.bound_kprod_sum(n, n - 1))


def test_biseparable_frozen_values():
    assert criteria.bounds_biseparable(6) == (26.0, 37.0)
    assert criteria.bounds_biseparable(4) == (10.0, 17.0)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_bounds_monotone_in_k(n):
    sums = [criteria.bound_kprod_sum(n, k) for k in range(1, n)]
    singles = [criteria.bound_kprod_single(n, k) for k in range(1, n)]
    assert all(b >= a for a, b in zip(sums, sums[1:]))
    assert all(b >= a for a, b in zip(singles, singles[1:]))


def test_unentangled_bound_formula():
    assert criteria.bound_unentangled(6, 1) == 1 + 5 * 7
    assert criteria.bound_unentangled(6, 6) == 6.0
    assert criteria.bound_unentangled(4, 2) == 2 + 2 * 4
    with pytest.raises(ValidationError):
        criteria.bound_unentangled(4, 5)


def test_bound_argument_validation():
    with pytest.raises(ValidationError):
        criteria.bound_kprod_sum(4, 0)
    with pytest.raises(ValidationError):
        criteria.bound_kprod_sum(4, 5)
    with pytest.raises(ValidationError):
        criteria.bound_separable_sum(0)
    with pytest.raises(ValidationError, match="n_qubits >= 2"):
        criteria.bounds_biseparable(1)


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


def _spectral_k(criterion_id):
    if criterion_id.endswith("_separable"):
        return 1
    return int(criterion_id.rsplit("_k", 1)[1])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(n=st.integers(2, 4), mixed=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_depth_is_one_plus_largest_violated_spectral_rung(n, mixed, seed):
    rng = np.random.default_rng(seed)
    rho = helpers.ginibre_mixed(n, rng) if mixed else helpers.haar_pure(n, rng)
    reports, cert = criteria.evaluate_all(states.from_matrix(rho, n))
    hit = {r.criterion_id: _spectral_k(r.criterion_id) for r in reports
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


@pytest.mark.parametrize("k", [2, 3])
def test_kproducible_mixtures_respect_their_rung(k):
    rng = np.random.default_rng(2000 + k)
    n = 6
    for _ in range(6):
        rho = helpers.kproducible_mixture(n, k, rng)
        reports, _ = criteria.evaluate_all(states.from_matrix(rho, n))
        for rep in reports:
            for kk in range(k, n):
                assert not (rep.criterion_id.endswith(f"_k{kk}") and rep.violated), \
                    rep.criterion_id
            assert not (rep.criterion_id.startswith("biseparable") and rep.violated)


# ------------------------------------------------------------ tightness

def _block_state(*kets):
    v = helpers.kron_chain(kets).ravel()
    return states.from_matrix(np.outer(v, v.conj()), int(math.log2(v.size)))


ZERO = np.array([1.0, 0.0], dtype=complex)
PLUS_X = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)


@pytest.mark.parametrize("kets,triple,met", [
    ((helpers.ghz_ket(3), helpers.ghz_ket(3)), (6, 6, 18),
     {"kprod_single_k3": 18.0, "kprod_sum_k3": 30.0}),
    ((helpers.ghz_ket(5), ZERO), (6, 6, 25), {"biseparable_sum": 37.0}),
    ((helpers.ghz_ket(5), PLUS_X), (5, 6, 26),
     {"biseparable_single": 26.0, "biseparable_sum": 37.0}),
], ids=["ghz3-ghz3", "ghz5-zero", "ghz5-plusx"])
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
