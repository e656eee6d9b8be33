import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinqfi import interferometer as itf
from spinqfi import collective, criteria, qfi, states
from spinqfi.errors import DimensionCapError, ValidationError

import helpers


def test_phase_setting_normalizes_direction():
    s = itf.PhaseSetting(0.2, (0.0, 0.0, 1.0))
    assert s.direction == (0.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        itf.PhaseSetting(0.2, (1.0, 1.0, 0.0))
    with pytest.raises(ValidationError):
        itf.PhaseSetting(float("nan"), (0.0, 0.0, 1.0))


# ------------------------------------------------------------ measurements

def test_measurement_validates_projectors():
    with pytest.raises(ValidationError):
        itf.Measurement([0, 1], np.array([[1.0, 0.0], [0.0, 0.5]]))  # not unitary
    with pytest.raises(ValidationError):
        itf.Measurement([0, 1, 2])  # not 2^N labels
    with pytest.raises(ValidationError):
        itf.Measurement([0])  # N = 0
    with pytest.raises(ValidationError):
        itf.Measurement([])
    with pytest.raises(ValidationError):
        itf.Measurement([0, 1, 2, 3], np.eye(3))  # basis of the wrong size


def test_measurement_accepts_complete_projective_set():
    m = itf.Measurement(np.arange(4), np.eye(4, dtype=complex))
    assert m.dim == 4 and len(m.projectors) == 4


def test_from_observable_clusters_degenerate_levels():
    m = itf.Measurement.from_observable(collective.collective_j("z", 3))
    ranks = sorted(int(round(np.trace(p).real)) for p in m.projectors)
    assert ranks == [1, 1, 3, 3]


def test_parity_measurement_structure():
    m = itf.Measurement.parity("x", 3)
    assert len(m.projectors) == 2
    word = helpers.kron_chain([helpers.SX] * 3)
    plus, minus = m.projectors[1], m.projectors[0]
    # eigenspace projectors reassemble the parity word
    np.testing.assert_allclose(plus - minus, word, atol=1e-9)


def test_computational_measurement():
    m = itf.Measurement.computational(2)
    assert len(m.projectors) == 4
    total = sum(m.projectors)
    np.testing.assert_allclose(total, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("build", [
    lambda n: itf.Measurement.parity("x", n),
    lambda n: itf.Measurement.collective((0.0, 0.0, 1.0), n),
    itf.Measurement.computational,
], ids=["parity", "collective", "computational"])
@pytest.mark.parametrize("n,error,message", [
    (13, DimensionCapError, "exceeds cap"),
    (0, ValidationError, "n_qubits must be positive"),
    (-1, ValidationError, "n_qubits must be positive"),
])
def test_measurement_constructors_check_the_register_size(build, n, error, message):
    # the same cap as every state constructor, checked before 2^N labels exist
    with pytest.raises(error, match=message):
        build(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_probabilities_match_reference_projectors(n):
    rng = np.random.default_rng(700 + n)
    d = helpers.random_direction(rng)
    cases = [(itf.Measurement.parity(axis, n), helpers.parity_projectors(axis, n))
             for axis in "xyz"]
    cases += [(itf.Measurement.collective(d, n), helpers.collective_projectors(d, n)),
              (itf.Measurement.computational(n), helpers.computational_projectors(n))]
    ket = helpers.haar_ket(2 ** n, rng)
    for st, rho in ((states._pure_state(ket, n), np.outer(ket, ket.conj())),
                    (states.from_matrix(helpers.ginibre_mixed(n, rng), n), None)):
        rho = st.rho if rho is None else rho
        for meas, projs in cases:
            want = [np.trace(p @ rho).real for p in projs]
            np.testing.assert_allclose(meas.probabilities(st), want, rtol=0, atol=1e-12)


# ------------------------------------------------------------ evolution

def test_evolve_pure_state_stays_pure():
    st = states.ghz(3, "z")
    out = itf.evolve(st, itf.PhaseSetting(0.4, (0.0, 0.0, 1.0)))
    assert out.is_pure
    assert np.linalg.norm(out.vector) == pytest.approx(1.0, abs=1e-12)


def test_evolve_matches_direct_conjugation():
    rng = np.random.default_rng(17)
    for n, pure in itertools.product((2, 3, 4), (False, True)):
        if pure:
            ket = helpers.haar_ket(2 ** n, rng)
            rho, st = np.outer(ket, ket.conj()), states._pure_state(ket, n)
        else:
            rho = helpers.ginibre_mixed(n, rng)
            st = states.from_matrix(rho, n)
        d = helpers.random_direction(rng)
        theta = 0.3
        out = itf.evolve(st, itf.PhaseSetting(theta, tuple(d)))
        assert out.is_pure == pure
        gen = helpers.collective_op("x", n) * d[0] + helpers.collective_op("y", n) * d[1] \
            + helpers.collective_op("z", n) * d[2]
        vals, vecs = np.linalg.eigh(gen)
        u = (vecs * np.exp(-1j * theta * vals)) @ vecs.conj().T
        np.testing.assert_allclose(out.rho, u @ rho @ u.conj().T, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_qfi_invariant_under_evolution_about_same_axis(n):
    rng = np.random.default_rng(600 + n)
    st = states.from_matrix(helpers.ginibre_mixed(n, rng), n)
    d = helpers.random_direction(rng)
    before = qfi.qfi_direction(st, d)
    after = qfi.qfi_direction(itf.evolve(st, itf.PhaseSetting(0.7, tuple(d))), d)
    assert after == pytest.approx(before, abs=1e-9)


# ------------------------------------------------------------ classical Fisher

@pytest.mark.parametrize("n", [3, 4, 5, 10])
def test_ghz_parity_attains_quantum_limit(n):
    st = states.ghz(n, "z")
    setting = itf.PhaseSetting(math.pi / (2 * n), (0.0, 0.0, 1.0))
    fcl = itf.classical_fisher(st, setting, itf.Measurement.parity("x", n))
    assert abs(fcl - n * n) / (n * n) <= 1e-12


def test_report_counts_dead_outcomes():
    st = states.ghz(2, "z")
    setting = itf.PhaseSetting(0.1, (0.0, 0.0, 1.0))
    rep = itf.classical_fisher_report(st, setting, itf.Measurement.computational(2))
    # rotation about z keeps |01>, |10> unpopulated
    assert rep["excluded_outcomes"] == 2
    assert rep["probabilities"].shape == rep["derivatives"].shape == (4,)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_exact_derivative_matches_finite_differences(n):
    # a second route: dense projectors, exp(-i theta J_n) from eigh, central
    # differences; their error shrinks 4x per halved step towards the exact p'
    rng = np.random.default_rng(9100 + n)
    pure = [states.ghz(n, "z"), states._pure_state(helpers.haar_ket(2 ** n, rng), n)]
    dense = states.from_matrix(helpers.ginibre_mixed(n, rng), n)
    bases = pure + [dense]
    cases = bases + [states.white_noise_mix(st, 0.6) for st in bases]
    d = helpers.random_direction(rng)
    theta = rng.uniform(0.05, 0.5)
    setting = itf.PhaseSetting(theta, tuple(d))
    q = helpers.random_projective_measurement(2 ** n, rng)
    measurements = [(itf.Measurement.parity(a, n), helpers.parity_projectors(a, n))
                    for a in "xyz"]
    measurements += [
        (itf.Measurement.computational(n), helpers.computational_projectors(n)),
        (itf.Measurement.collective(d, n), helpers.collective_projectors(d, n)),
        (itf.Measurement(np.arange(2 ** n), q), [np.outer(c, c.conj()) for c in q.T])]
    halvings = 0
    for st, (meas, projs) in itertools.product(cases, measurements):
        rep = itf.classical_fisher_report(st, setting, meas)
        p, fd = helpers.phase_probabilities(st.rho, projs, n, d, theta, 1e-4)
        _, fd_half = helpers.phase_probabilities(st.rho, projs, n, d, theta, 5e-5)
        np.testing.assert_allclose(rep["probabilities"], p, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rep["derivatives"], (4.0 * fd_half - fd) / 3.0,
                                   rtol=0, atol=1e-9)
        err, err_half = fd - rep["derivatives"], fd_half - rep["derivatives"]
        big = np.abs(err) > 1e-9  # truncation well above rounding (about 1e-12)
        assert np.all(np.abs(err[big] / err_half[big] - 4.0) < 0.2)
        halvings += int(np.sum(big))
        keep = p >= itf.P_FLOOR
        want = float(np.sum(fd_half[keep] ** 2 / p[keep]))
        assert abs(rep["value"] - want) <= 1e-6 * max(want, 1.0)
        assert rep["excluded_outcomes"] == int(np.sum(~keep))
    assert halvings > 0


def test_dimension_mismatch_rejected():
    with pytest.raises(ValidationError):
        itf.classical_fisher(states.ghz(3), itf.PhaseSetting(0.1, (0, 0, 1.0)),
                             itf.Measurement.computational(2))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_classical_never_beats_quantum(n):
    rng = np.random.default_rng(4200 + n)
    for _ in range(4):
        if rng.uniform() < 0.5:
            st = states.from_matrix(helpers.haar_pure(n, rng), n)
        else:
            st = states.from_matrix(helpers.ginibre_mixed(n, rng), n)
        d = helpers.random_direction(rng)
        theta = rng.uniform(0.05, 0.5)
        meas = itf.Measurement(np.arange(2 ** n),
                               helpers.random_projective_measurement(2 ** n, rng))
        fcl = itf.classical_fisher(st, itf.PhaseSetting(theta, tuple(d)), meas)
        fq = qfi.qfi_direction(st, d)
        assert fcl <= fq + 1e-6


def test_parity_along_rotation_axis_is_blind():
    # measuring parity about the rotation axis gives no phase signal
    st = states.ghz(4, "z")
    setting = itf.PhaseSetting(0.23, (0.0, 0.0, 1.0))
    fcl = itf.classical_fisher(st, setting, itf.Measurement.parity("z", 4))
    assert abs(fcl) < 1e-6


# ------------------------------------------------------------ white-noise route

def _measurements(n, direction, rng):
    yield "parity-x", itf.Measurement.parity("x", n)
    yield "parity-y", itf.Measurement.parity("y", n)
    yield "computational", itf.Measurement.computational(n)
    yield "collective", itf.Measurement.collective(direction, n)
    yield "random", itf.Measurement(np.arange(2 ** n),
                                    helpers.random_projective_measurement(2 ** n, rng))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_white_noise_fisher_matches_dense_route(n):
    # the mix is evolved and measured through its inner state; the dense
    # route conjugates the full rho of the same state
    rng = np.random.default_rng(8100 + n)
    inners = [states.ghz(n, "z"), states._pure_state(helpers.haar_ket(2 ** n, rng), n)]
    for inner, p in itertools.product(inners, (0.2, 0.55, 0.9)):
        noisy = states.white_noise_mix(inner, p)
        dense = states.from_matrix(noisy.rho, n)
        d = helpers.random_direction(rng)
        setting = itf.PhaseSetting(rng.uniform(0.05, 0.5), tuple(d))
        for name, meas in _measurements(n, d, rng):
            got = itf.classical_fisher_report(noisy, setting, meas)
            want = itf.classical_fisher_report(dense, setting, meas)
            assert abs(got["value"] - want["value"]) <= 1e-9, (name, p)
            assert got["excluded_outcomes"] == want["excluded_outcomes"], (name, p)
            np.testing.assert_allclose(got["probabilities"], want["probabilities"],
                                       rtol=0, atol=1e-12)


def test_evolve_keeps_white_noise_form():
    rng = np.random.default_rng(8200)
    inner = states._pure_state(helpers.haar_ket(8, rng), 3)
    noisy = states.white_noise_mix(states.white_noise_mix(inner, 0.8), 0.6)
    d = helpers.random_direction(rng)
    out = itf.evolve(noisy, itf.PhaseSetting(0.37, tuple(d)))
    assert out.noise is not None and out.noise[1] == 0.8 * 0.6
    assert out.noise[0].is_pure
    dense = itf.evolve(states.from_matrix(noisy.rho, 3), itf.PhaseSetting(0.37, tuple(d)))
    np.testing.assert_allclose(out.rho, dense.rho, atol=1e-12)


def test_library_built_chain_of_any_depth_matches_one_mix():
    # 3000 levels, built in Python, far past the interpreter's recursion limit
    chain = states.ghz(2)
    for _ in range(3000):
        chain = states.white_noise_mix(chain, 0.999)
    single = states.white_noise_mix(states.ghz(2), 0.999 ** 3000)
    d = (0.0, 0.6, 0.8)
    setting = itf.PhaseSetting(0.3, d)
    meas = itf.Measurement.parity("x", 2)
    for got, want in [(chain, single), (itf.evolve(chain, setting), itf.evolve(single, setting))]:
        np.testing.assert_allclose(got.spectrum.values, want.spectrum.values, rtol=0, atol=1e-9)
        np.testing.assert_allclose(got.rho, want.rho, rtol=0, atol=1e-9)
        np.testing.assert_allclose(qfi.qfi_matrix(got).mat, qfi.qfi_matrix(want).mat,
                                   rtol=0, atol=1e-9)
        (got_rows, got_depth), (want_rows, want_depth) = (
            criteria.evaluate_all(got), criteria.evaluate_all(want))
        np.testing.assert_allclose([r.value for r in got_rows], [r.value for r in want_rows],
                                   rtol=0, atol=1e-9)
        assert got_depth.depth_lower_bound == want_depth.depth_lower_bound
    assert abs(itf.classical_fisher(chain, setting, meas)
               - itf.classical_fisher(single, setting, meas)) <= 1e-9
    assert chain.noise[0].noise is None and chain.noise[1] == math.prod([0.999] * 3000)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(2, 4), pure=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_white_noise_chain_matches_dense_route(n, pure, seed, weights):
    rng = np.random.default_rng(seed)
    if pure:
        state = states._pure_state(helpers.haar_ket(2 ** n, rng), n)
    else:
        state = states.from_matrix(helpers.ginibre_mixed(n, rng), n)
    for p in weights:
        state = states.white_noise_mix(state, p)
    dense = states.from_matrix(state.rho, n)
    np.testing.assert_allclose(qfi.qfi_matrix(state).mat, qfi.qfi_matrix(dense).mat,
                               rtol=0, atol=1e-9)
    np.testing.assert_allclose(np.sort(state.spectrum.values), np.sort(dense.spectrum.values),
                               rtol=0, atol=1e-9)
    for meas in (itf.Measurement.parity("x", n), itf.Measurement.parity("y", n),
                 itf.Measurement.computational(n)):
        np.testing.assert_allclose(meas.probabilities(state), meas.probabilities(dense),
                                   rtol=0, atol=1e-9)
    setting = itf.PhaseSetting(rng.uniform(-np.pi, np.pi), tuple(helpers.random_direction(rng)))
    np.testing.assert_allclose(itf.evolve(state, setting).rho, itf.evolve(dense, setting).rho,
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("p", [None, 0.7])
def test_crb_leaves_rho_unbuilt(p):
    inner = states.ghz(5, "z")
    st = inner if p is None else states.white_noise_mix(inner, p)
    d = (0.0, 0.0, 1.0)
    fq = qfi.qfi_direction(st, d)
    fcl = itf.classical_fisher(st, itf.PhaseSetting(0.1, d), itf.Measurement.parity("x", 5))
    assert 0.0 < fcl <= fq + 1e-6
    assert st._rho is None and inner._rho is None
    assert st._spectrum is None and inner._spectrum is None


def test_white_noise_over_a_dense_base_keeps_the_dense_route():
    base = states.from_matrix(helpers.ginibre_mixed(3, np.random.default_rng(17), rank=2), 3)
    st = states.white_noise_mix(base, 0.6)
    d = (0.6, 0.0, 0.8)
    assert qfi.qfi_direction(st, d) == qfi.qfi_matrix(st).direction(d)
    assert st._spectrum is not None

