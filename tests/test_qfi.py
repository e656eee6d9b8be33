import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinqfi import collective, interferometer, landscape, qfi, states
from spinqfi.errors import NumericalError, ValidationError

import helpers


def wrap(rho, n):
    return states.from_matrix(rho, n)


# ------------------------------------------------------------ oracle agreement

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_matches_double_sum_full_rank(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(6):
        rho = helpers.ginibre_mixed(n, rng)
        got = qfi.qfi_matrix(wrap(rho, n)).mat
        np.testing.assert_allclose(got, helpers.gamma_reference(rho, n), atol=1e-8)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matrix_matches_double_sum_rank_deficient(n):
    # rank-2 mixtures exercise the support/kernel split
    rng = np.random.default_rng(200 + n)
    for _ in range(6):
        rho = helpers.ginibre_mixed(n, rng, rank=2)
        got = qfi.qfi_matrix(wrap(rho, n)).mat
        np.testing.assert_allclose(got, helpers.gamma_reference(rho, n), atol=1e-8)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_matrix_matches_double_sum_pure(n):
    rng = np.random.default_rng(300 + n)
    rho = helpers.haar_pure(n, rng)
    got = qfi.qfi_matrix(wrap(rho, n)).mat
    np.testing.assert_allclose(got, helpers.gamma_reference(rho, n), atol=1e-8)


def test_constructor_pure_path_matches_dense_path():
    st = states.ghz(5, "y")
    dense = wrap(np.array(st.rho), 5)
    np.testing.assert_allclose(qfi.qfi_matrix(st).mat, qfi.qfi_matrix(dense).mat,
                               atol=1e-9)


# ------------------------------------------------------------ frozen triples

FROZEN_TRIPLES = [
    ("ghz", (4, "z"), (4.0, 4.0, 16.0)),
    ("ghz", (4, "x"), (16.0, 4.0, 4.0)),
    ("ghz", (4, "y"), (4.0, 16.0, 4.0)),
    ("ghz", (6, "z"), (6.0, 6.0, 36.0)),
    ("dicke", (4, 2, "z"), (12.0, 12.0, 0.0)),
    ("dicke", (6, 3, "z"), (24.0, 24.0, 0.0)),
    ("dicke", (6, 3, "x"), (0.0, 24.0, 24.0)),
    ("excited_dicke", (6, "z"), (18.0, 18.0, 0.0)),
    ("excited_dicke", (8, "z"), (32.0, 32.0, 0.0)),
    ("completely_mixed", (4,), (0.0, 0.0, 0.0)),
    ("product_bloch", ((0.0, 0.0, 1.0), 4), (4.0, 4.0, 0.0)),
]


@pytest.mark.parametrize("family,args,expected", FROZEN_TRIPLES,
                         ids=lambda v: str(v))
def test_reference_state_triples(family, args, expected):
    st = getattr(states, family)(*args)
    np.testing.assert_allclose(qfi.fisher_triple(st), expected, atol=1e-9)


def test_white_noise_ghz_triple():
    st = states.white_noise_mix(states.ghz(4, "z"), 0.5)
    np.testing.assert_allclose(qfi.fisher_triple(st),
                               np.array([4.0, 4.0, 16.0]) * (4.0 / 9.0), atol=1e-12)


def test_direction_interpolates_matrix():
    st = states.dicke(4, 2, "z")
    d = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    assert qfi.qfi_direction(st, d) == pytest.approx(12.0, abs=1e-9)


# ------------------------------------------------------------ white noise over a pure base

GOLDEN_NOISE = sorted((Path(__file__).parent / "golden" / "specs").glob("white_noise_*.json"))
PURE_BASES = st.one_of(st.sampled_from(GOLDEN_NOISE), st.integers(1, 6))
WEIGHT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def _pure_base(source, rng):
    """The pure inner state of a golden white-noise spec, or a Haar-random one
    on `source` qubits."""
    if isinstance(source, Path):
        return states.from_spec(states.StateSpec.from_dict(json.loads(source.read_text()))).noise[0]
    return states._pure_state(helpers.haar_ket(2 ** source, rng), source)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(source=PURE_BASES, weights=st.lists(WEIGHT, min_size=1, max_size=3),
       eps=st.sampled_from([1e-12, 0.1, 0.5, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_white_noise_direction_matches_the_dense_route(source, weights, eps, seed):
    # eps 0.1 and 0.5 drop the floor (1 - P)/d for some chains and the whole
    # spectrum for others; 1.0 always drops everything
    rng = np.random.default_rng(seed)
    state = _pure_base(source, rng)
    for p in weights:
        state = states.white_noise_mix(state, p)
    d = helpers.random_direction(rng)
    got = qfi.qfi_direction(state, d, eps)
    want = qfi.qfi_matrix(state, eps).direction(d)
    assert abs(got - want) <= 1e-12 * max(1.0, want)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(source=PURE_BASES, p=WEIGHT, seed=st.integers(0, 2 ** 32 - 1))
def test_white_noise_direction_is_the_closed_form_scale(source, p, seed):
    rng = np.random.default_rng(seed)
    base = _pure_base(source, rng)
    d = helpers.random_direction(rng)
    want = landscape.noise_scale(p, base.n_qubits) * qfi.qfi_direction(base, d)
    got = qfi.qfi_direction(states.white_noise_mix(base, p), d)
    assert abs(got - want) <= 1e-13 * abs(want)


@functools.lru_cache(maxsize=None)
def _dense_identity_route(n, eps):
    """The QFI matrix and variances of 1/2^N as an explicit density matrix."""
    dense = states.from_matrix(np.eye(2 ** n) / 2 ** n, n)
    return qfi.qfi_matrix(dense, eps), qfi.collective_variances(dense)


@pytest.mark.parametrize("n", range(1, 11))
def test_weight_zero_closed_form_is_the_dense_route_bit_for_bit(n):
    # every weight-0 mix is 1/2^N: the closed form must give the dense route's
    # bits, signed zeros included, and build nothing dense on the way
    rng = np.random.default_rng(500 + n)
    pure = states._pure_state(helpers.haar_ket(2 ** n, rng), n)
    dense = states.mix([pure, states.ghz(n, "y")], [0.4, 0.6])
    mixes = {
        "completely_mixed": states.completely_mixed(n),
        "pure_base": states.white_noise_mix(pure, 0.0),
        "dense_base": states.white_noise_mix(dense, 0.0),
        "underflow": states.white_noise_mix(states.white_noise_mix(pure, 1e-200), 1e-200),
    }
    assert mixes["underflow"].noise[1] == 0.0
    d = helpers.random_direction(rng)
    for eps in (1e-12, 0.1, 1.0):
        qmat, var = _dense_identity_route(n, eps)
        for name, state in mixes.items():
            assert _hex(qfi.qfi_matrix(state, eps).mat.ravel()) == _hex(qmat.mat.ravel()), name
            assert _hex([qfi.qfi_direction(state, d, eps)]) == _hex([qmat.direction(d)]), name
            assert _hex(qfi.collective_variances(state)) == _hex(var), name
            assert state._rho is None and state._spectrum is None, name
    assert _hex(var) == _hex([n / 4] * 3)
    if n <= 4:  # the literal double sum, numpy only
        rho = np.eye(2 ** n) / 2 ** n
        assert _hex(helpers.gamma_reference(rho, n).ravel()) == _hex(qmat.mat.ravel())
        assert _hex(helpers.variance_reference(rho, helpers.collective_op(axis, n))
                    for axis in "xyz") == _hex(var)


@pytest.mark.parametrize("eps", [-1.0, math.nan, math.inf])
def test_white_noise_routes_reject_a_bad_rank_cutoff(eps):
    # unchecked, eps = nan gives [0, 0, 0] on the dense route and 3.6 on the
    # direction route; both reach QuantumState.support
    mixed = states.white_noise_mix(states.ghz(3), 0.5)
    flat = states.completely_mixed(3)  # weight 0 returns before any support
    for call in (lambda: qfi.fisher_triple(mixed, eps),
                 lambda: qfi.qfi_direction(mixed, (0, 0, 1), eps),
                 lambda: qfi.fisher_triple(flat, eps),
                 lambda: qfi.qfi_direction(flat, (0, 0, 1), eps),
                 lambda: states.ghz(3).support(eps)):
        with pytest.raises(ValidationError, match="rank cutoff eps must be nonnegative and finite"):
            call()


# ------------------------------------------------------------ invariants

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pure_state_equals_four_variances(n):
    rng = np.random.default_rng(400 + n)
    for _ in range(5):
        rho = helpers.haar_pure(n, rng)
        st = wrap(rho, n)
        d = helpers.random_direction(rng)
        var = qfi.variance(st, collective.j_direction(d, n))
        assert abs(qfi.qfi_direction(st, d) - 4.0 * var) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mixed_state_bounded_by_four_variances(n):
    rng = np.random.default_rng(500 + n)
    for _ in range(8):
        st = wrap(helpers.ginibre_mixed(n, rng), n)
        d = helpers.random_direction(rng)
        var = qfi.variance(st, collective.j_direction(d, n))
        assert qfi.qfi_direction(st, d) <= 4.0 * var + 1e-9


def test_convexity_in_the_state():
    rng = np.random.default_rng(61)
    n = 3
    for _ in range(6):
        r1, r2 = helpers.ginibre_mixed(n, rng), helpers.haar_pure(n, rng)
        w = rng.uniform(0.1, 0.9)
        d = helpers.random_direction(rng)
        mixed = qfi.qfi_direction(wrap(w * r1 + (1 - w) * r2, n), d)
        split = (w * qfi.qfi_direction(wrap(r1, n), d)
                 + (1 - w) * qfi.qfi_direction(wrap(r2, n), d))
        assert mixed <= split + 1e-9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ceiling_chain(n):
    # sum_l F_l <= 4 sum_l var_l <= 4 sum_l <J_l^2> <= N(N+2)
    rng = np.random.default_rng(700 + n)
    ops = collective.collective_all(n)
    for _ in range(6):
        st = wrap(helpers.ginibre_mixed(n, rng), n)
        total_f = float(np.sum(qfi.fisher_triple(st)))
        total_var = sum(qfi.variance(st, op) for op in ops)
        total_sq = sum(st.expectation(op @ op).real for op in ops)
        assert total_f <= 4 * total_var + 1e-9
        assert 4 * total_var <= 4 * total_sq + 1e-9
        assert 4 * total_sq <= n * (n + 2) + 1e-9


def test_eigenvalues_invariant_under_uniform_local_rotation():
    rng = np.random.default_rng(83)
    n = 3
    for _ in range(4):
        rho = helpers.ginibre_mixed(n, rng)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(g)
        big = helpers.kron_chain([u] * n)
        rotated = big @ rho @ big.conj().T
        e1 = qfi.qfi_matrix(wrap(rho, n)).eigenvalues
        e2 = qfi.qfi_matrix(wrap(rotated, n)).eigenvalues
        np.testing.assert_allclose(e1, e2, atol=1e-9)


def test_triple_entries_within_component_cap():
    for st in (states.ghz(4, "z"), states.dicke(6, 3, "x")):
        triple = qfi.fisher_triple(st)
        assert np.all(triple <= st.n_qubits ** 2 + 1e-6)


# ------------------------------------------------------------ skew information

def test_skew_equals_variance_on_pure_states():
    rng = np.random.default_rng(91)
    st = wrap(helpers.haar_pure(3, rng), 3)
    op = collective.collective_j("x", 3)
    assert qfi.skew_information(st, op) == pytest.approx(qfi.variance(st, op),
                                                         abs=1e-10)


def test_skew_frozen_value():
    st = states.white_noise_mix(states.ghz(4, "z"), 0.5)
    got = qfi.skew_information(st, collective.collective_j("z", 4))
    assert got == pytest.approx(1.2192235935955849, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_four_skew_below_qfi(n):
    rng = np.random.default_rng(930 + n)
    for _ in range(6):
        st = wrap(helpers.ginibre_mixed(n, rng), n)
        d = helpers.random_direction(rng)
        op = collective.j_direction(d, n)
        assert 4.0 * qfi.skew_information(st, op) <= qfi.qfi_direction(st, d) + 1e-9


def test_operator_size_is_checked():
    st = states.ghz(3)
    for fn in (qfi.variance, qfi.skew_information):
        with pytest.raises(ValidationError, match="does not match state dim 8"):
            fn(st, collective.collective_j("z", 2))


# ------------------------------------------------------------ matrix container

def test_matrix_container_symmetrizes_and_freezes():
    mat = np.array([[1.0, 0.1, 0.0], [0.1 + 5e-11, 2.0, 0.0], [0.0, 0.0, 3.0]])
    q = qfi.QfiMatrix(mat)
    assert q.mat[0, 1] == q.mat[1, 0]
    with pytest.raises(ValueError):
        q.mat[0, 0] = 9.0
    with pytest.raises(NumericalError):
        qfi.QfiMatrix(np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


def test_direction_output_clamped_to_zero():
    q = qfi.QfiMatrix(np.diag([1e-13, 1.0, 1.0]) - np.full((3, 3), 1e-13))
    assert q.direction((1.0, 0.0, 0.0)) >= 0.0


def test_every_qfi_route_caps_components_at_n_squared(doubled_generators):
    # doubled generators quadruple the QFI: GHZ_z gets F_z = 4 N^2 > N^2, on
    # each pure route (dense at N = 4, the operator table at N = 7) and on the
    # dense route of the same state as a rho
    for n in (4, 7):
        pure = states.ghz(n, "z")
        for st in (pure, wrap(np.outer(pure.vector, pure.vector.conj()), n)):
            for route in (qfi.qfi_matrix, qfi.fisher_triple,
                          lambda state: qfi.qfi_direction(state, (1.0, 0.0, 0.0))):
                with pytest.raises(NumericalError, match=f"exceeds N\\^2 = {n * n}.0"):
                    route(st)


def test_average_qfi_is_third_of_trace():
    st = states.ghz(4, "z")
    assert qfi.qfi_matrix(st).trace / 3.0 == pytest.approx(24.0 / 3.0, abs=1e-9)


def test_average_qfi_matches_direction_monte_carlo():
    rng = np.random.default_rng(1234)
    st = states.dicke(4, 2, "z")
    qmat = qfi.qfi_matrix(st)
    draws = [qmat.direction(helpers.random_direction(rng)) for _ in range(2000)]
    assert np.mean(draws) == pytest.approx(qmat.trace / 3.0, rel=0.05)


# ------------------------------------------------------------ collective moments

def _hex(values):
    return [float.hex(float(v)) for v in values]


def _assert_moments_bitwise(state):
    ops = collective.collective_all(state.n_qubits)
    assert _hex(qfi.collective_variances(state)) == _hex(qfi.variance(state, j) for j in ops)


def _evolved_dense():
    rho = helpers.ginibre_mixed(4, np.random.default_rng(41), rank=3)
    setting = interferometer.PhaseSetting(0.3, (0.6, 0.0, 0.8))
    return interferometer.evolve(states.from_matrix(rho, 4), setting)


MOMENT_STATES = {
    "ghz": lambda: states.ghz(9, "x"),
    "ghz_y_n10": lambda: states.ghz(10, "y"),
    "dicke_n7": lambda: states.dicke(7, 2, "x"),  # the smallest table route
    "dicke": lambda: states.dicke(8, 3, "y"),
    "product_bloch": lambda: states.product_bloch((0.6, 0.0, 0.8), 6),
    "even_parity": lambda: states.even_parity([0.6, 0.48j, 0.64], 8),
    "dicke_superposition": lambda: states.dicke_superposition([0.2 + 1j, -0.4, 0.9 - 0.3j], 8),
    "excited_dicke": lambda: states.excited_dicke(8, "x"),
    "completely_mixed": lambda: states.completely_mixed(7),
    "white_noise_mix": lambda: states.white_noise_mix(states.dicke(10, 5, "x"), 0.7),
    "raw_matrix": lambda: states.from_matrix(
        helpers.ginibre_mixed(5, np.random.default_rng(40), rank=6), 5),
    "mix": lambda: states.mix([states.ghz(6, "y"), states.dicke(6, 2, "z")], [0.3, 0.7]),
    "evolved_dense": _evolved_dense,
}
# A pure state above qfi.DENSE_PURE_MAX qubits reads J psi off the operator
# table, which sums in another order than the dense products. Up to N = 10,
# where an entry reaches N^2 = 100, the two routes agree within
TABLE_ATOL = 1e-12


@pytest.mark.parametrize("kind", sorted(MOMENT_STATES))
def test_collective_variances_equal_variance_bit_for_bit(kind):
    state = MOMENT_STATES[kind]()
    if not (state.is_pure and state.n_qubits > qfi.DENSE_PURE_MAX):
        _assert_moments_bitwise(state)
        return
    ops = collective.collective_all(state.n_qubits)
    np.testing.assert_allclose(qfi.collective_variances(state),
                               [qfi.variance(state, j) for j in ops], rtol=0, atol=TABLE_ATOL)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(1, 6), rank=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
def test_collective_variances_bitwise_on_random_mixed_states(n, rank, seed):
    rho = helpers.ginibre_mixed(n, np.random.default_rng(seed), rank=min(rank, 2 ** n))
    state = wrap(rho, n)
    _assert_moments_bitwise(state)
    ref = [helpers.variance_reference(rho, helpers.collective_op(axis, n)) for axis in "xyz"]
    np.testing.assert_allclose(qfi.collective_variances(state), ref, atol=1e-10)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_pure_collective_variances_match_the_numpy_oracle(n, seed):
    # both pure routes against the literal trace formula
    ket = helpers.haar_ket(2 ** n, np.random.default_rng(seed))
    state = states._pure_state(ket, n)
    rho = np.outer(ket, ket.conj())
    ref = [helpers.variance_reference(rho, helpers.collective_op(axis, n)) for axis in "xyz"]
    np.testing.assert_allclose(qfi.collective_variances(state), ref, rtol=0, atol=1e-10)
    assert state._rho is None


# ------------------------------------------------------------ pure routes

def _pure_kinds(n):
    """One state of each pure kind that admits N qubits."""
    rng = np.random.default_rng(n)
    kinds = {"ghz": states.ghz(n, "x"), "dicke": states.dicke(n, n // 2, "y")}
    if n % 2 == 0:
        c, size = rng.normal(size=3), len(states.even_parity_indices(n))
        coeffs = rng.normal(size=size) + 1j * rng.normal(size=size)
        kinds["product_bloch"] = states.product_bloch(c / np.linalg.norm(c), n)
        kinds["even_parity"] = states.even_parity(coeffs / np.linalg.norm(coeffs), n)
    if n % 2 == 0 and n >= 4:
        kinds["excited_dicke"] = states.excited_dicke(n, "y")
    if n % 4 == 0:
        kinds["dicke_superposition"] = states.dicke_superposition([0.2 + 1j, -0.4, 0.9 - 0.3j], n)
    return kinds


def _dense_variance(state, j, square):
    """qfi.variance's arithmetic with j @ j formed once per operator."""
    mean = state.expectation(j).real
    return qfi._clamp_nonneg(state.expectation(square).real - mean * mean)


@pytest.mark.parametrize("n", range(1, 11))
def test_pure_route_matches_the_dense_operators_bit_for_bit(n, monkeypatch):
    # Bit for bit at N <= DENSE_PURE_MAX, where a pure state multiplies by the
    # dense J; above it the operator table is held within TABLE_ATOL of the
    # dense operators and of the Kronecker-built oracle.
    ops = collective.collective_all(n)
    squares = [j @ j for j in ops]
    oracle_ops = [helpers.collective_op(axis, n) for axis in "xyz"]
    memo = dict(zip(collective.AXES, ops))
    for kind, state in _pure_kinds(n).items():
        dense = [_dense_variance(state, j, sq) for j, sq in zip(ops, squares)]
        variances = qfi.collective_variances(state)
        pure = qfi.qfi_matrix(state)
        with monkeypatch.context() as m:
            m.setattr(qfi, "DENSE_PURE_MAX", n)
            m.setattr(qfi, "dense", lambda op, n_qubits: memo[op] if op in memo
                      else collective.dense(op, n_qubits))
            reference = qfi.qfi_matrix(state)
        if n <= qfi.DENSE_PURE_MAX:
            assert _hex(variances) == _hex(dense), kind
            assert _hex(dense) == _hex(qfi.variance(state, j) for j in ops), kind
            assert _hex(pure.mat.ravel()) == _hex(reference.mat.ravel()), kind
            assert float.hex(pure.imag_residue) == float.hex(reference.imag_residue), kind
            continue
        oracle = helpers.pure_moments_reference(state.vector, oracle_ops)
        for want in (dense, oracle[1]):
            np.testing.assert_allclose(variances, want, rtol=0, atol=TABLE_ATOL, err_msg=kind)
        for want in (reference.mat, oracle[0]):
            np.testing.assert_allclose(pure.mat, want, rtol=0, atol=TABLE_ATOL, err_msg=kind)
        assert pure.imag_residue <= TABLE_ATOL, kind


def _table_states(n):
    """Two seeded Haar kets and one state of each pure kind, built as pure states."""
    rng = np.random.default_rng(700 + n)
    kets = {f"haar{i}": states._pure_state(helpers.haar_ket(2 ** n, rng), n) for i in range(2)}
    return {**kets, **_pure_kinds(n)}


@pytest.mark.parametrize("n", [7, 8])
def test_table_route_meets_the_numpy_oracle(n):
    # the double sum over the full eigensystem and the literal trace formula,
    # each from the Kronecker-built J; from_matrix would take the dense route
    assert n > qfi.DENSE_PURE_MAX
    for kind, state in _table_states(n).items():
        assert state.is_pure, kind
        rho = np.outer(state.vector, state.vector.conj())
        np.testing.assert_allclose(qfi.qfi_matrix(state).mat, helpers.gamma_reference(rho, n),
                                   rtol=0, atol=1e-10, err_msg=kind)
        ref = [helpers.variance_reference(rho, helpers.collective_op(axis, n)) for axis in "xyz"]
        np.testing.assert_allclose(qfi.collective_variances(state), ref, rtol=0, atol=1e-10,
                                   err_msg=kind)
        assert state._rho is None, kind


@pytest.mark.parametrize("n", [6, 7])
def test_pure_routes_agree_across_the_threshold(n, monkeypatch):
    # the same states through the dense route (threshold n) and the operator
    # table (threshold n - 1); counting the dense J shows which route ran
    built = []
    real = qfi.dense
    monkeypatch.setattr(qfi, "dense", lambda op, n_qubits: built.append(op) or real(op, n_qubits))
    for kind, state in _table_states(n).items():
        runs = {}
        for limit in (n, n - 1):
            built.clear()
            monkeypatch.setattr(qfi, "DENSE_PURE_MAX", limit)
            runs[limit] = qfi.qfi_matrix(state).mat, qfi.collective_variances(state)
            assert built == (["x", "y", "z", "x", "xx", "y", "yy"] if limit == n else []), kind
        (dense_mat, dense_var), (table_mat, table_var) = runs[n], runs[n - 1]
        np.testing.assert_allclose(table_mat, dense_mat, rtol=0, atol=1e-12, err_msg=kind)
        np.testing.assert_allclose(table_var, dense_var, rtol=0, atol=1e-12, err_msg=kind)
        assert state._rho is None, kind


def _mixed_kinds(n):
    """One state of each kind that takes the dense route at N qubits."""
    rng = np.random.default_rng(500 + n)
    deficient = wrap(helpers.ginibre_mixed(n, rng, rank=min(3, 2 ** n - 1)), n)
    full = wrap(helpers.ginibre_mixed(n, rng), n)
    setting = interferometer.PhaseSetting(0.37, (0.0, 0.6, 0.8))
    return {
        "noise_over_pure": states.white_noise_mix(states.ghz(n, "x"), 0.7),
        "noise_over_dense": states.white_noise_mix(deficient, 0.6),
        "raw_full": full,
        "raw_deficient": deficient,
        "mix": states.mix([states.ghz(n, "x"), states.dicke(n, n // 2, "z")], [0.3, 0.7]),
        "evolved": interferometer.evolve(full, setting),
    }


@pytest.mark.parametrize("n", range(1, 11))
def test_mixed_route_matches_the_memoized_operators_bit_for_bit(n, monkeypatch):
    # the mixed route builds each J where it multiplies and drops it after;
    # the reference reads the same J from the memo, as collective_all serves it
    for kind, state in _mixed_kinds(n).items():
        assert not state.is_pure, kind
        before = collective._collective_cached.cache_info()
        got = qfi.qfi_matrix(state)
        assert collective._collective_cached.cache_info() == before, kind
        variances = qfi.collective_variances(state)
        assert collective._collective_cached.cache_info() == before, kind
        memo = dict(zip(collective.AXES, collective.collective_all(n)))
        with monkeypatch.context() as m:
            m.setattr(qfi, "dense", lambda op, n_qubits: memo[op] if op in memo
                      else collective.dense(op, n_qubits))
            reference = qfi.qfi_matrix(state)
            reference_variances = qfi.collective_variances(state)
        assert _hex(got.mat.ravel()) == _hex(reference.mat.ravel()), kind
        assert float.hex(got.imag_residue) == float.hex(reference.imag_residue), kind
        assert _hex(variances) == _hex(reference_variances), kind
