import inspect
import json
import math
import re
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from spinqfi import criteria, interferometer, landscape, qfi, states
from spinqfi.errors import DimensionCapError, SpecError, ValidationError

import helpers

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
Y_ROT = np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2)


def local_rotation(v, u, n):
    return helpers.kron_chain([u] * n) @ v


def test_ghz_amplitudes():
    st = states.ghz(3)
    v = st.vector
    assert v[0] == pytest.approx(1 / math.sqrt(2))
    assert v[-1] == pytest.approx(1 / math.sqrt(2))
    assert np.count_nonzero(np.abs(v) > 1e-15) == 2
    assert st.is_pure and st.dim == 8


@pytest.mark.parametrize("basis,u", [("x", HADAMARD), ("y", Y_ROT)])
def test_ghz_rotated_basis_is_local_rotation(basis, u):
    rotated = states.ghz(4, basis).vector
    by_hand = local_rotation(states.ghz(4, "z").vector, u, 4)
    np.testing.assert_allclose(rotated, by_hand, atol=1e-14)


def test_dicke_equal_weight_on_excitation_sector():
    v = states.dicke(4, 2).vector
    for idx in range(16):
        want = 1 / math.sqrt(6) if bin(idx).count("1") == 2 else 0.0
        assert abs(v[idx] - want) < 1e-14


def test_dicke_validation():
    with pytest.raises(ValidationError):
        states.dicke(4, 5)
    with pytest.raises(ValidationError):
        states.dicke(4, -1)
    with pytest.raises(ValidationError):
        states.dicke(4, 2, basis="q")


def test_product_bloch_polarization_split():
    # half the register along +z, half along -z: <J_z> = 0 and J_z^2 variance N/4...
    # check the per-qubit reduced expectations directly instead
    st = states.product_bloch((0.0, 0.0, 1.0), 4)
    v = st.vector
    for site in range(1, 5):
        zop = helpers.kron_chain(
            [helpers.SZ if k == site else helpers.I2 for k in range(1, 5)])
        mean = complex(v.conj() @ (zop @ v)).real
        assert mean == pytest.approx(1.0 if site <= 2 else -1.0, abs=1e-12)


def test_product_bloch_total_variance_is_half_n():
    for n in (2, 4, 6):
        st = states.product_bloch((1 / math.sqrt(3),) * 3, n)
        total = sum(helpers.variance_reference(st.rho, helpers.collective_op(a, n))
                    for a in "xyz")
        assert total == pytest.approx(n / 2, abs=1e-10)


def test_product_bloch_validation():
    with pytest.raises(ValidationError):
        states.product_bloch((0, 0, 1.0), 3)
    with pytest.raises(ValidationError):
        states.product_bloch((1.0, 1.0, 0.0), 4)


def test_even_parity_reduces_to_ghz():
    st = states.even_parity([1.0, 0.0], 4)
    ref = states.ghz(4, "z").vector
    phase = st.vector[0] / ref[0]
    np.testing.assert_allclose(st.vector, phase * ref, atol=1e-14)


def test_even_parity_index_layout():
    assert states.even_parity_indices(4) == (0, 2)
    assert states.even_parity_indices(8) == (0, 2, 4)
    assert states.even_parity_indices(12) == (0, 2, 4, 6)


def test_even_parity_validation():
    with pytest.raises(ValidationError):
        states.even_parity([1.0], 4)
    with pytest.raises(ValidationError):
        states.even_parity([0.5, 0.5], 4)  # square sum != 1
    with pytest.raises(ValidationError, match="even number"):
        states.even_parity([1.0], 3)


def test_dicke_superposition_is_normalized_combination():
    rng = np.random.default_rng(42)
    alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
    st = states.dicke_superposition(alpha, 4)
    assert np.linalg.norm(st.vector) == pytest.approx(1.0, abs=1e-12)
    # parallel to the hand-built combination
    kets = {}
    for basis, u in (("x", HADAMARD), ("y", Y_ROT), ("z", np.eye(2))):
        kets[basis] = local_rotation(states.dicke(4, 2, "z").vector, u, 4)
    raw = alpha[0] * kets["x"] + alpha[1] * kets["y"] + alpha[2] * kets["z"]
    raw /= np.linalg.norm(raw)
    overlap = abs(raw.conj() @ st.vector)
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_dicke_superposition_validation():
    with pytest.raises(ValidationError):
        states.dicke_superposition([1, 0, 0], 6)
    with pytest.raises(ValidationError):
        states.dicke_superposition([0, 0, 0], 4)
    # at N = 4 the three kets are linearly dependent, with kernel (1, -1, 1)
    for scale in (1.0, 1e-200, 1e100):
        with pytest.raises(ValidationError, match="vanishes"):
            states.dicke_superposition(scale * np.array([1.0, -1.0, 1.0]), 4)


def test_balanced_dicke_pair_overlap_at_eight_qubits():
    dz = states.dicke(8, 4, "z").vector
    dx = local_rotation(dz, HADAMARD, 8)
    assert complex(dx.conj() @ dz) == pytest.approx(0.375, abs=1e-12)


def test_excited_dicke_structure():
    st = states.excited_dicke(6, "z")
    v = st.vector
    # one excitation prepended to a 5-qubit, 2-excitation symmetric state:
    # every populated bitstring has weight 3 and leading bit set
    for idx in np.nonzero(np.abs(v) > 1e-15)[0]:
        assert bin(int(idx)).count("1") == 3
        assert idx >= 32
    jz = helpers.collective_op("z", 6)
    assert np.max(np.abs(jz @ v)) < 1e-13  # J_z eigenstate, eigenvalue 0


def test_excited_dicke_validation():
    with pytest.raises(ValidationError):
        states.excited_dicke(5)
    with pytest.raises(ValidationError):
        states.excited_dicke(2)


def test_completely_mixed_spectrum():
    st = states.completely_mixed(3)
    np.testing.assert_allclose(st.spectrum.values, np.full(8, 1 / 8))
    lam, vecs = st.support()
    assert lam.shape == (8,) and vecs.shape == (8, 8)


def test_white_noise_mix_matrix_and_spectrum():
    st = states.ghz(3, "z")
    noisy = states.white_noise_mix(st, 0.3)
    np.testing.assert_allclose(
        noisy.rho, 0.3 * st.rho + 0.7 * np.eye(8) / 8, atol=1e-15)
    np.testing.assert_allclose(np.sort(noisy.spectrum.values),
                               np.sort(np.linalg.eigvalsh(noisy.rho)), atol=1e-12)


def test_white_noise_rho_leaves_the_inner_state_without_a_dense_rho():
    inner = states.ghz(4, "z")
    noisy = states.white_noise_mix(inner, 0.7)
    criteria.evaluate_all(noisy)
    assert noisy._rho is not None
    assert inner._rho is None
    np.testing.assert_array_equal(noisy.rho, 0.7 * inner.rho + (1.0 - 0.7) * np.eye(16) / 16)


def test_white_noise_weight_range_checked():
    with pytest.raises(ValidationError):
        states.white_noise_mix(states.ghz(2), 1.5)
    with pytest.raises(ValidationError):
        states.white_noise_mix(states.ghz(2), -0.1)


@pytest.mark.parametrize("pure", [True, False], ids=["pure-base", "dense-base"])
@pytest.mark.parametrize("weights", [(0.8, 0.6), (0.8, 0.6, 0.9), (0.7, 0.3, 0.95, 0.5)],
                         ids=["2-levels", "3-levels", "4-levels"])
def test_white_noise_chain_is_one_weight_and_matches_the_dense_fold(pure, weights):
    # second route: numpy alone folds each level p rho + (1 - p) 1/d into rho
    n, dim = 3, 8
    rng = np.random.default_rng([9300, len(weights), pure])
    if pure:
        ket = helpers.haar_ket(dim, rng)
        base_rho, base = np.outer(ket, ket.conj()), states._pure_state(ket, n)
    else:
        base_rho = helpers.ginibre_mixed(n, rng)
        base = states.from_matrix(base_rho, n)
    chain, want = base, base_rho
    for p in weights:
        chain = states.white_noise_mix(chain, p)
        want = p * want + (1.0 - p) * np.eye(dim) / dim
    assert chain.noise[0] is base and isinstance(chain.noise[1], float)
    assert chain.noise[1] == math.prod(weights)
    np.testing.assert_allclose(chain.rho, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(chain.spectrum.values, np.linalg.eigvalsh(want), rtol=0, atol=1e-12)
    minus, plus = helpers.parity_projectors("x", n)
    probs = interferometer.Measurement.parity("x", n).probabilities(chain)
    np.testing.assert_allclose(probs, [np.trace(minus @ want).real, np.trace(plus @ want).real],
                               rtol=0, atol=1e-12)
    for _ in range(3):
        d = helpers.random_direction(rng)
        expect = helpers.qfi_reference(want, n, d)
        assert abs(qfi.qfi_direction(chain, d) - expect) <= 1e-12 * max(1.0, expect)
    (got_rows, got_cert), (want_rows, want_cert) = (
        criteria.evaluate_all(chain), criteria.evaluate_all(states.from_matrix(want, n)))
    np.testing.assert_allclose([r.value for r in got_rows], [r.value for r in want_rows],
                               rtol=0, atol=1e-12)
    assert (got_cert.depth_lower_bound, got_cert.witnessing_criterion) == (
        want_cert.depth_lower_bound, want_cert.witnessing_criterion)


def test_mix_builds_convex_combination():
    a, b = states.ghz(2, "z"), states.completely_mixed(2)
    out = states.mix([a, b], [0.25, 0.75])
    np.testing.assert_allclose(out.rho, 0.25 * a.rho + 0.75 * b.rho, atol=1e-15)
    with pytest.raises(ValidationError):
        states.mix([a, b], [0.5, 0.6])
    with pytest.raises(ValidationError):
        states.mix([a, states.ghz(3)], [0.5, 0.5])
    with pytest.raises(ValidationError, match="matching"):
        states.mix([a, b], [1.0])


@pytest.mark.parametrize("weights", [[math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.0],
                                     [1.0, math.inf]], ids=["nan-nan", "nan-1", "inf-0", "1-inf"])
def test_mix_rejects_non_finite_weights(weights):
    with pytest.raises(ValidationError, match="finite"):
        states.mix([states.ghz(2), states.dicke(2, 1)], weights)


def test_pure_spectrum_rank_one_and_orthonormal():
    rng = np.random.default_rng(7)
    st = states.dicke_superposition(rng.normal(size=3) + 1j * rng.normal(size=3), 4)
    dec = st.spectrum
    np.testing.assert_allclose(dec.values, [0.0] * 15 + [1.0], atol=0)
    np.testing.assert_allclose(dec.vectors.conj().T @ dec.vectors, np.eye(16),
                               atol=1e-12)
    np.testing.assert_allclose(dec.reconstruct(), st.rho, atol=1e-12)


def test_support_pure_fast_path():
    st = states.ghz(4)
    lam, vecs = st.support()
    assert lam.tolist() == [1.0]
    np.testing.assert_allclose(vecs[:, 0], st.vector)


def test_from_matrix_accepts_valid_density_matrix():
    rng = np.random.default_rng(19)
    rho = helpers.ginibre_mixed(2, rng)
    st = states.from_matrix(rho, 2)
    np.testing.assert_allclose(st.rho, rho, atol=1e-12)
    assert st.spec.kind == "raw_matrix"


def test_from_matrix_collects_all_problems():
    bad = np.array([[0.9, 0.2], [0.0, 0.4]], dtype=complex)  # asymmetric, trace 1.3
    with pytest.raises(ValidationError) as err:
        states.from_matrix(bad, 1)
    msg = str(err.value)
    assert "Hermitian" in msg and "trace" in msg


def test_from_matrix_rejects_negative_eigenvalue():
    bad = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(ValidationError) as err:
        states.from_matrix(bad, 1)
    assert "eigenvalue" in str(err.value)


def test_from_matrix_rejects_bad_shapes_and_entries():
    with pytest.raises(ValidationError, match="square"):
        states.from_matrix(np.ones((2, 4)) / 2.0)
    bad = np.eye(2, dtype=complex) / 2.0
    bad[0, 1] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        states.from_matrix(bad)


def test_from_matrix_infers_n_qubits_from_the_dimension():
    st = states.from_matrix(np.eye(8) / 8.0)
    assert st.n_qubits == 3 and st.spec.n_qubits == 3


def test_from_matrix_rejects_a_zero_qubit_matrix():
    with pytest.raises(ValidationError, match="n_qubits must be positive"):
        states.from_matrix(np.ones((1, 1)))


def test_pure_state_rejects_a_zero_vector():
    with pytest.raises(ValidationError, match="zero norm"):
        states._pure_state(np.zeros(4), 2)


def test_an_overflowing_norm_is_an_error_not_the_zero_state(recwarn):
    # finite amplitudes whose squared norm overflows: the norm reads inf
    with pytest.raises(ValidationError, match="norm is not finite"):
        states.dicke_superposition([1e154, 1e154, 0], 4)
    assert not recwarn.list  # no numpy overflow warning on the way


def test_even_parity_with_huge_coefficients_is_an_error(recwarn):
    with pytest.raises(ValidationError, match="unit square sum"):
        states.even_parity([1e200, 0], 4)
    assert not recwarn.list


def every_family_spec():
    rng = np.random.default_rng(23)
    yield states.ghz(4, "y")
    yield states.dicke(6, 2, "x")
    yield states.product_bloch((0.6, 0.0, 0.8), 4)
    yield states.even_parity([0.6, 0.8], 4)
    yield states.dicke_superposition([0.2 + 1j, -0.4, 0.9 - 0.3j], 4)
    yield states.excited_dicke(6, "y")
    yield states.completely_mixed(3)
    yield states.white_noise_mix(states.ghz(3, "z"), 0.45)
    yield states.from_matrix(helpers.ginibre_mixed(2, rng), 2)


@pytest.mark.parametrize("state", list(every_family_spec()),
                         ids=lambda s: s.spec.kind)
def test_spec_round_trip_through_json(state):
    doc = json.loads(json.dumps(state.spec.to_dict()))
    rebuilt = states.from_spec(states.StateSpec.from_dict(doc))
    assert np.max(np.abs(rebuilt.rho - state.rho)) <= 1e-12


def test_from_dict_rejects_malformed_documents():
    with pytest.raises(SpecError):
        states.StateSpec.from_dict(["ghz"])
    with pytest.raises(SpecError):
        states.StateSpec.from_dict({"n_qubits": 4})
    with pytest.raises(SpecError):
        states.StateSpec.from_dict({"kind": "teleporter", "n_qubits": 4})
    with pytest.raises(SpecError):
        states.StateSpec.from_dict({"kind": "ghz", "n_qubits": 4, "frobs": 1})
    with pytest.raises(SpecError):
        states.StateSpec.from_dict({"kind": "dicke_superposition", "n_qubits": 4,
                                    "alpha": [1.0, 0.0, 0.0]})


GHZ3 = {"kind": "ghz", "n_qubits": 3}


@pytest.mark.parametrize("doc", [
    {**GHZ3, "m": 2, "c": [1.0, 0.0, 0.0]},
    {**GHZ3, "n_qubits": 4.7},
    {**GHZ3, "n_qubits": True},
    {**GHZ3, "n_qubits": "3"},
    {**GHZ3, "n_qubits": float("inf")},
    {**GHZ3, "n_qubits": None},
    {**GHZ3, "basis": ["x"]},
    {"kind": "dicke", "n_qubits": 4, "m": float("inf")},
    {"kind": "product_bloch", "n_qubits": 4, "c": [1.0, 0.0]},
    {"kind": "product_bloch", "n_qubits": 4, "c": [1.0, 0.0, float("nan")]},
    {"kind": "product_bloch", "n_qubits": 4, "c": [10 ** 400, 0, 0]},
    {"kind": "dicke_superposition", "n_qubits": 4, "alpha": [[1.0, 0.0], [0.0, 0.0]]},
    {"kind": "even_parity", "n_qubits": 4, "coeffs": [[0.6, 0.0], [0.8, False]]},
    {"kind": "white_noise_mix", "p": float("-inf"), "inner": GHZ3},
    {"kind": "white_noise_mix", "p": 0.5, "inner": {**GHZ3, "n_qubits": 3.0}},
    {"kind": "raw_matrix", "n_qubits": 1, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]},
], ids=["ghz-foreign-fields", "fractional-n", "bool-n", "string-n", "infinite-n", "null-n",
        "list-basis", "infinite-m", "short-c", "nan-c", "huge-c", "short-alpha",
        "bool-coeff", "infinite-p", "float-inner-n", "ragged-matrix"])
def test_from_dict_enforces_field_types(doc):
    with pytest.raises(SpecError):
        states.StateSpec.from_dict(doc)


def test_white_noise_spec_size_must_match_inner():
    spec = states.StateSpec.from_dict({"kind": "white_noise_mix", "n_qubits": 5, "p": 0.5,
                                       "inner": {"kind": "ghz", "n_qubits": 3}})
    with pytest.raises(ValidationError, match="n_qubits=5"):
        states.from_spec(spec)


def test_from_spec_caps_only_the_chain_it_builds():
    # inner is no field of a ghz spec: to_dict and label drop it, and so does the cap
    spec = states.StateSpec("ghz", 3, "z", inner=states.StateSpec("ghz", 13))
    assert spec.to_dict() == {"kind": "ghz", "n_qubits": 3, "basis": "z"}
    assert states.from_spec(spec, cap=2 ** 3).n_qubits == 3
    noisy = states.StateSpec("white_noise_mix", p=0.5, inner=states.StateSpec("ghz", 13))
    with pytest.raises(DimensionCapError):
        states.from_spec(noisy)


def test_huge_n_qubits_fails_the_cap_without_forming_the_dimension():
    with pytest.raises(DimensionCapError):
        states.ghz(10 ** 15)


@pytest.mark.parametrize("kind", sorted(states.KNOWN_KINDS))
def test_kind_fields_are_the_builder_parameters(kind):
    params = inspect.signature(states.builder(kind)).parameters
    assert set(states.KIND_FIELDS[kind]) == set(params)


def test_from_spec_is_the_only_function_taking_a_cap():
    takers = {name for name, fn in inspect.getmembers(states, inspect.isfunction)
              if fn.__module__ == states.__name__
              and "cap" in inspect.signature(fn).parameters}
    assert takers == {"from_spec"}


def provenance_specs():
    yield from landscape.landmark_specs(8).values()
    yield from (pt.provenance for pt in landscape.sample_dicke_plane(4, 5, seed=3))
    yield from (pt.provenance for pt in landscape.sample_product_polytope(4, 5, seed=3))
    line = landscape.noise_line(states.dicke(4, 2, "x"), [0.0, 0.3, 1.0])
    yield from (entry.measured.provenance for entry in line.entries)
    yield from (state.spec for state in every_family_spec())


GOLDEN_SPECS = sorted((Path(__file__).parent / "golden" / "specs").glob("*.json"))


@pytest.mark.parametrize("path", GOLDEN_SPECS, ids=[p.stem for p in GOLDEN_SPECS])
def test_golden_specs_round_trip(path):
    doc = json.loads(path.read_text())
    spec = states.StateSpec.from_dict(doc)
    assert spec.to_dict() == doc
    assert states.StateSpec.from_dict(spec.to_dict()) == spec


def test_provenance_specs_round_trip():
    specs = list(provenance_specs())
    assert {s.kind for s in specs} == states.KNOWN_KINDS
    for spec in specs:
        assert states.StateSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


def test_noise_chain_label_and_document():
    spec = states.StateSpec("white_noise_mix", 3, p=0.5, inner=states.StateSpec(
        "white_noise_mix", p=0.25, inner=states.StateSpec("dicke", 3, "x", m=1)))
    assert spec.label() == ("white_noise_mix n=3 p=0.5 inner=(white_noise_mix p=0.25 "
                            "inner=(dicke n=3 basis=x m=1))")
    assert json.dumps(spec.to_dict()) == (
        '{"kind": "white_noise_mix", "n_qubits": 3, "p": 0.5, "inner": {"kind": '
        '"white_noise_mix", "p": 0.25, "inner": {"kind": "dicke", "n_qubits": 3, '
        '"basis": "x", "m": 1}}}')


def test_spec_chains_are_walked_without_recursion():
    levels = 5000  # far past the interpreter's recursion limit
    spec = states.StateSpec("ghz", 2)
    for _ in range(levels):
        spec = states.StateSpec("white_noise_mix", p=0.999, inner=spec)
    label = spec.label()
    assert label.count("inner=(") == levels and label.endswith(")" * levels)
    doc, depth = spec.to_dict(), 0
    while doc["kind"] == "white_noise_mix":
        doc, depth = doc["inner"], depth + 1
    assert (doc, depth) == ({"kind": "ghz", "n_qubits": 2, "basis": "z"}, levels)
    state = states.from_spec(spec)
    base, p = state.noise
    assert p == math.prod([0.999] * levels) > 0.0  # one weight, folded innermost first
    assert base.is_pure and base.n_qubits == 2 and base.spec == states.StateSpec("ghz", 2)


def test_readme_spec_examples_parse_and_build():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("State spec files are JSON documents")[1]
    block = block.split("```json\n")[1].split("```")[0]
    docs = [json.loads(text) for text in re.split(r"\n(?=\{)", block.strip())]
    assert {d["kind"] for d in docs} == states.KNOWN_KINDS
    for doc in docs:
        state = states.from_spec(states.StateSpec.from_dict(doc))
        assert state.spec.to_dict() == doc


def test_from_spec_missing_fields():
    with pytest.raises(ValidationError):
        states.from_spec(states.StateSpec("dicke", 4))
    with pytest.raises(ValidationError):
        states.from_spec(states.StateSpec("ghz"))
    with pytest.raises(ValidationError, match="white_noise_mix spec requires inner, p$"):
        states.from_spec(states.StateSpec("white_noise_mix", 4))


def test_white_noise_n_qubits_is_a_check_on_the_inner_state():
    inner = states.ghz(3)
    assert states.white_noise_mix(inner, 0.5, n_qubits=3).spec == \
        states.white_noise_mix(inner, 0.5).spec
    with pytest.raises(ValidationError, match="n_qubits=4 differs"):
        states.white_noise_mix(inner, 0.5, n_qubits=4)


def test_state_matrices_are_read_only():
    st = states.ghz(3)
    with pytest.raises(ValueError):
        st.rho[0, 0] = 5.0
    with pytest.raises(ValueError):
        st.vector[0] = 5.0


def _fresh_state_of_each_kind():
    rng = np.random.default_rng(37)
    mixed = states.from_matrix(helpers.ginibre_mixed(3, rng), 3)
    setting = interferometer.PhaseSetting(0.3, (0.6, 0.0, 0.8))
    return {
        "pure": lambda: states.ghz(3, "x"),
        "white_noise": lambda: states.white_noise_mix(states.dicke(3, 1, "y"), 0.4),
        "completely_mixed": lambda: states.completely_mixed(3),
        "raw_matrix": lambda: states.from_matrix(mixed.rho, 3),
        "mix": lambda: states.mix([states.ghz(3), mixed], [0.3, 0.7]),
        "evolved_dense": lambda: interferometer.evolve(mixed, setting),
    }


@pytest.mark.parametrize("kind", list(_fresh_state_of_each_kind()))
def test_concurrent_reads_do_not_deadlock(kind):
    # rho, spectrum and support are built lazily under the state's lock, and
    # the spectrum of a dense state reads rho while holding it
    readers = (lambda s: s.rho, lambda s: s.spectrum, lambda s: s.support())
    for first in range(3):
        st = _fresh_state_of_each_kind()[kind]()
        start = threading.Barrier(6)
        errors = []

        def read(order):
            try:
                start.wait(timeout=30)
                for r in order:
                    r(st)
            except Exception as exc:  # reported below, not swallowed
                errors.append(exc)

        orders = [readers[first:] + readers[:first], readers[::-1]] * 3
        threads = [threading.Thread(target=read, args=(o,), daemon=True) for o in orders]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 30
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not any(t.is_alive() for t in threads), f"{kind}: a reader hung"
        assert errors == []
        np.testing.assert_allclose(st.spectrum.reconstruct(), st.rho, atol=1e-12)


def test_apply_local_unitary_matches_kron():
    rng = np.random.default_rng(31)
    v = helpers.haar_ket(8, rng)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(g)
    np.testing.assert_allclose(states.apply_local_unitary(v, u, 3),
                               helpers.kron_chain([u] * 3) @ v, atol=1e-12)
    cols = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
    np.testing.assert_allclose(states.apply_local_unitary(cols, u, 3),
                               helpers.kron_chain([u] * 3) @ cols, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_apply_local_unitary_keeps_the_bits_of_tensordot(n):
    # the rotated Dicke and GHZ states of the golden corpus depend on these bits
    rng = np.random.default_rng(37 + n)
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    for shape in [(2 ** n,), (2 ** n, 1), (2 ** n, 3)]:
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for op in (u, u.conj().T):  # C- and F-ordered
            t = a.reshape((2,) * n + shape[1:])
            for axis in range(n):
                t = np.moveaxis(np.tensordot(op, t, axes=([1], [axis])), 0, axis)
            got = states.apply_local_unitary(a, op, n)
            assert got.shape == shape
            assert np.array_equal(got.view(float), t.reshape(shape).view(float))
