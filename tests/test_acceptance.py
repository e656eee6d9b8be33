"""End-to-end acceptance gate.

One test per shipped acceptance criterion, each at its stated tolerance.
Run with -v to get one pass/fail line per criterion. Two criteria fail by
design: 01 asserts the tabulated excited-Dicke landmarks, which sit half a
unit above what the constructed states give, and 03 asserts the triangle
clause for the superposition family. Those tests are kept faithful to the
stated numbers and fail, with the measured values in the assertion message.

Criterion 05 was corrected: it stated that the excited-Dicke state sits on
the biseparable_sum bound N^2 + 1. No biseparable state gets past
F_x + F_y = N^2 (derivation in the test), and the excited-Dicke state
attains exactly N^2, one unit below the bound.
"""
import math
import time

import numpy as np
import pytest

from spinqfi import criteria, interferometer, landscape, qfi, states
from spinqfi.collective import j_direction

import helpers


def _uniform_directions(count, rng):
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_criterion_01_landmark_reproduction():
    t0 = time.perf_counter()
    bad = []
    for n in (4, 8):
        tabulated = landscape.landmark_points(n)
        for name, state in landscape.landmark_states(n).items():
            err = float(np.max(np.abs(qfi.fisher_triple(state)
                                      - tabulated[name].p)))
            if err > 1e-8:
                bad.append((n, name, err))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    assert not bad, f"landmark mismatches (n, name, error): {bad}"


def test_criterion_02_sum_saturation():
    for n in (4, 6, 8):
        for state in (states.ghz(n, "z"), states.dicke(n, n // 2, "z")):
            total = float(qfi.fisher_triple(state).sum())
            assert abs(total - n * (n + 2)) <= 1e-9


def test_criterion_03_superposition_plane_and_triangle():
    t0 = time.perf_counter()
    points = landscape.sample_dicke_plane(8, 1000, seed=7)
    marks = landscape.landmark_points(8)
    triangle = landscape.Polytope(
        "d_triangle", (marks["dicke_x"], marks["dicke_y"], marks["dicke_z"]))
    worst_sum = 0.0
    outside = 0
    for point in points:
        worst_sum = max(worst_sum, abs(float(point.p.sum()) - 80.0))
        if not landscape.polytope_contains(triangle, point.p, tol=1e-8):
            outside += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert worst_sum <= 1e-8
    assert outside == 0, (f"{outside}/1000 sampled points lie outside the "
                          f"triangle of the three symmetric landmarks "
                          f"(coplanarity residual {worst_sum:.3g})")


def test_criterion_04_no_false_violations():
    rng = np.random.default_rng(404)
    sep_watch = {"separable_sum", "separable_single", "variance_floor",
                 "spectral_trace_separable", "spectral_max_separable"}
    for i in range(200):
        n = 2 + i % 5
        state = states.from_matrix(helpers.separable_mixture(n, rng), n)
        reports, _ = criteria.evaluate_all(state, tol=1e-9)
        fired = [r.criterion_id for r in reports
                 if r.violated and r.criterion_id in sep_watch]
        assert fired == [], (n, fired)
    for i in range(100):
        k = 2 + i % 2
        state = states.from_matrix(helpers.kproducible_mixture(6, k, rng), 6)
        reports, _ = criteria.evaluate_all(state, tol=1e-9)
        fired = [r.criterion_id for r in reports if r.violated
                 and ("kprod" in r.criterion_id)
                 and int(r.criterion_id.rsplit("k", 1)[1]) >= k]
        assert fired == [], (k, fired)


def test_criterion_05_depth_certification():
    by_id = {}
    for label, state in (("dicke", states.dicke(6, 3, "z")),
                         ("ghz", states.ghz(6, "z"))):
        reports, cert = criteria.evaluate_all(state)
        by_id[label] = {r.criterion_id: r for r in reports}
        assert cert.depth_lower_bound >= 6, label
    rep = by_id["dicke"]["kprod_sum_k5"]
    assert rep.violated and rep.bound == 37.0
    assert rep.value == pytest.approx(48.0, abs=1e-9)
    rep = by_id["ghz"]["kprod_single_k5"]
    assert rep.violated and rep.bound == 26.0
    assert rep.value == pytest.approx(36.0, abs=1e-9)

    # The excited-Dicke edge case sits at N^2 = 36, one unit below the
    # biseparable_sum bound N^2 + 1 = 37. For a pure product A (x) B over
    # k | N-k qubits, F_x + F_y = 4 sum_blocks [Var(J_x) + Var(J_y)], and a
    # block of k qubits (spin j <= k/2) adds at most 4 [j(j+1) - <J_z^2>].
    # An odd block has half-integer J_z eigenvalues, so <J_z^2> >= 1/4. For
    # N even, odd splits then peak at k = 1 with 2 + (N^2 - 2) = N^2; even
    # splits give at most N^2 - 2N + 8, which is <= N^2. The QFI is convex,
    # so every biseparable state has F_x + F_y <= N^2.
    # |1> (x) |D_{N-1}^{(N/2-1)}> attains it at (N^2/2, N^2/2, 0), so its
    # three-component sum is N^2.
    reports, _ = criteria.evaluate_all(states.excited_dicke(6, "z"))
    edge = next(r for r in reports if r.criterion_id == "biseparable_sum")
    assert not edge.violated and edge.bound == 37.0
    assert edge.value == pytest.approx(36.0, abs=1e-9), \
        f"excited-Dicke edge case sits at {edge.value}, not at N^2 = 36"


def test_criterion_06_noise_scaling_closed_form():
    grid = np.linspace(0.0, 1.0, 11)
    for state in (states.ghz(4, "z"), states.dicke(4, 2, "z")):
        res = landscape.noise_line(state, grid)
        assert res.max_residual <= 1e-9


def test_criterion_07_pure_identity_and_mixed_ordering():
    rng = np.random.default_rng(707)
    for i in range(100):
        n = 2 + i % 4
        state = states.from_matrix(helpers.haar_pure(n, rng), n)
        direction = helpers.random_direction(rng)
        fq = qfi.qfi_direction(state, direction)
        var = qfi.variance(state, j_direction(direction, n))
        assert abs(fq - 4.0 * var) <= 1e-9
    for i in range(100):
        n = 2 + i % 4
        state = states.from_matrix(helpers.ginibre_mixed(n, rng), n)
        direction = helpers.random_direction(rng)
        op = j_direction(direction, n)
        fq = qfi.qfi_direction(state, direction)
        assert fq <= 4.0 * qfi.variance(state, op) + 1e-9
        assert 4.0 * qfi.skew_information(state, op) <= fq + 1e-9


def test_criterion_08_cramer_rao_ordering():
    rng = np.random.default_rng(808)

    def random_state(m, mixed):
        rho = helpers.ginibre_mixed(m, rng) if mixed else helpers.haar_pure(m, rng)
        return states.from_matrix(rho, m)

    for n in (2, 3, 4, 5):
        for mixed in (False, True):
            for _ in range(3):
                state = random_state(n, mixed)
                direction = helpers.random_direction(rng)
                theta = rng.uniform(0.05, 0.5)
                meas = interferometer.Measurement(
                    np.arange(state.dim), helpers.random_projective_measurement(state.dim, rng))
                setting = interferometer.PhaseSetting(theta, tuple(direction))
                fcl = interferometer.classical_fisher(state, setting, meas)
                fq = qfi.qfi_direction(state, direction)
                assert fcl <= fq + 1e-6
    for n in (3, 4, 5):
        state = states.ghz(n, "z")
        setting = interferometer.PhaseSetting(math.pi / (2 * n), (0.0, 0.0, 1.0))
        meas = interferometer.Measurement.parity("x", n)
        fcl = interferometer.classical_fisher(state, setting, meas)
        assert abs(fcl - n * n) / (n * n) <= 1e-6


def test_criterion_09_direction_average_identity():
    for seed, state in ((91, states.ghz(4, "z")),
                        (92, states.dicke(4, 2, "z")),
                        (93, states.white_noise_mix(states.ghz(4, "z"), 0.6))):
        rng = np.random.default_rng(seed)
        dirs = _uniform_directions(10_000, rng)
        mc = float(np.mean([qfi.qfi_direction(state, v) for v in dirs]))
        ref = qfi.qfi_matrix(state).trace / 3.0
        assert abs(mc - ref) / ref <= 0.02


def test_criterion_10_closed_form_diagonal():
    # independent overlap constant, built from raw tensor products
    had = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    dz = states.dicke(8, 4, "z").vector
    dx = helpers.kron_chain([had] * 8) @ dz
    jy = helpers.collective_op("y", 8)
    q_independent = complex(dx.conj() @ (jy @ (jy @ dz)))
    assert abs(q_independent.imag) <= 1e-12

    rng = np.random.default_rng(1010)
    for _ in range(100):
        alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
        rep = landscape.closed_form_check(alpha, 8)
        assert rep.q_value == pytest.approx(q_independent.real, abs=1e-12)
        assert rep.max_residual <= 1e-8, alpha
