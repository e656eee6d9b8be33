import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinqfi import collective, criteria, landscape, qfi, states
from spinqfi.errors import DimensionCapError, NumericalError, ValidationError

import helpers

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
Y_ROT = np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2)


# ------------------------------------------------------------ landmarks

def test_landmark_table_four_qubits():
    pts = landscape.landmark_points(4)
    assert set(pts) == {"origin",
                        "product_x", "product_y", "product_z",
                        "dicke_x", "dicke_y", "dicke_z",
                        "excited_dicke_x", "excited_dicke_y", "excited_dicke_z",
                        "ghz_x", "ghz_y", "ghz_z"}
    np.testing.assert_allclose(pts["origin"].p, [0, 0, 0])
    np.testing.assert_allclose(pts["product_z"].p, [4, 4, 0])
    np.testing.assert_allclose(pts["product_x"].p, [0, 4, 4])
    np.testing.assert_allclose(pts["dicke_z"].p, [12, 12, 0])
    np.testing.assert_allclose(pts["ghz_z"].p, [4, 4, 16])
    np.testing.assert_allclose(pts["ghz_x"].p, [16, 4, 4])
    # tabulated coordinates for the excited-Dicke family, kept as printed
    np.testing.assert_allclose(pts["excited_dicke_z"].p, [8.5, 8.5, 0])


def test_landmark_points_need_even_n():
    with pytest.raises(ValidationError):
        landscape.landmark_points(5)
    with pytest.raises(ValidationError):
        landscape.landmark_points(0)


def test_landmark_specs_reconstruct_states():
    specs = landscape.landmark_specs(4)
    st = states.from_spec(specs["dicke_y"])
    np.testing.assert_allclose(st.rho, states.dicke(4, 2, "y").rho, atol=1e-12)


@pytest.mark.parametrize("n", [4, 6])
def test_landmark_consistency_isolates_excited_rows(n):
    rep = landscape.landmark_consistency(n)
    assert not rep.ok
    assert set(rep.failures) == {"excited_dicke_x", "excited_dicke_y",
                                 "excited_dicke_z"}
    for check in rep.checks:
        if check.name in rep.failures:
            # computed triple sits half a unit below the tabulated coordinates
            assert check.max_error == pytest.approx(0.5, abs=1e-9)
        else:
            assert check.max_error <= 1e-8


def test_landmark_qfi_matrices_are_diagonal():
    for name, st in landscape.landmark_states(4).items():
        mat = qfi.qfi_matrix(st).mat
        off = np.max(np.abs(mat - np.diag(np.diag(mat))))
        assert off <= 1e-9, name


# ------------------------------------------------------------ membership

def test_named_polytope_vertex_sets():
    prod = landscape.named_polytope("product", 4)
    assert len(prod.vertices) == 4
    bisep = landscape.named_polytope("bisep", 4)
    assert len(bisep.vertices) == 6
    dicke = landscape.named_polytope("dicke", 4)
    assert [v.p.tolist() for v in dicke.vertices] == [
        [0, 0, 0], [0, 12, 12], [12, 0, 12], [12, 12, 0]]
    with pytest.raises(ValidationError):
        landscape.named_polytope("everything", 4)


def test_membership_accepts_vertices_and_interior():
    poly = landscape.named_polytope("product", 4)
    for v in poly.vertices:
        assert landscape.polytope_contains(poly, v)
    centroid = np.mean([v.p for v in poly.vertices], axis=0)
    assert landscape.polytope_contains(poly, centroid)


def test_membership_rejects_outside_points():
    poly = landscape.named_polytope("product", 4)
    assert not landscape.polytope_contains(poly, np.array([4.0, 4.0, 4.0]))
    assert not landscape.polytope_contains(poly, np.array([9.0, 0.0, 0.0]))
    assert not landscape.polytope_contains(poly, np.array([np.nan, 0.0, 0.0]))
    assert not landscape.polytope_contains(poly, np.array([np.inf, 0.0, 0.0]))


def test_membership_tolerance_window():
    poly = landscape.named_polytope("product", 4)
    nudged = np.array([4.0, 4.0, 1e-9])  # just off the product_z vertex
    assert landscape.polytope_contains(poly, nudged)


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_membership_tolerance_must_be_nonnegative_and_finite(tol):
    # -1 and nan used to put the vertex (40, 40, 0) outside its own hull, and
    # inf put (400, 400, 0) inside
    poly = landscape.named_polytope("dicke", 8)
    for q in ([40.0, 40.0, 0.0], [400.0, 400.0, 0.0]):
        with pytest.raises(ValidationError, match="tol must be nonnegative and finite"):
            landscape.polytope_contains(poly, q, tol=tol)
    assert landscape.polytope_contains(poly, [0.0, 0.0, 0.0], tol=0.0)


def test_ghz_point_outside_biseparable_hull():
    poly = landscape.named_polytope("bisep", 6)
    ghz_point = landscape.landmark_points(6)["ghz_z"]
    assert not landscape.polytope_contains(poly, ghz_point)


def test_membership_vertex_budget():
    many = landscape.Polytope("big", tuple(
        landscape.FisherPoint(np.array([float(i), 0.0, 0.0])) for i in range(9)))
    with pytest.raises(ValidationError):
        landscape.polytope_contains(many, np.zeros(3))


@st.composite
def hull_and_point(draw):
    """1 to 8 integer-lattice vertices of affine dimension at most 3, 2, 1 or 0
    (repeats, collinear and coplanar sets included) and a point: a convex
    combination (weights may vanish, so faces and vertices are drawn), or one
    moved 1e-3 along a lattice direction, which can take it just outside."""
    dim = draw(st.sampled_from([3, 2, 1, 0]))
    dirs = np.array([[draw(st.integers(-3, 3)) for _ in range(3)] for _ in range(dim)], dtype=float)
    count = draw(st.sampled_from(range(8, 0, -1)))
    verts = np.array([sum((draw(st.integers(0, 3)) * d for d in dirs), np.zeros(3))
                      for _ in range(count)])
    verts -= verts.min(axis=0)  # Fisher points are nonnegative
    weights = np.array([draw(st.integers(0, 3)) for _ in range(count)], dtype=float)
    if weights.sum() == 0.0:
        weights[0] = 1.0
    point = weights / weights.sum() @ verts
    if draw(st.booleans()):
        point += 1e-3 * np.array([draw(st.integers(-2, 2)) for _ in range(3)])
    return verts, point


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=hull_and_point())
@example(case=(np.array([[1.0, 2.0, 3.0]]), np.array([1.0, 2.0, 3.0])))
@example(case=(np.array([[1.0, 2.0, 3.0]]), np.array([1.0, 2.0, 3.001])))
def test_membership_matches_nonnegative_least_squares(case):
    # the second route is the nonnegative least-squares solve over all vertices
    nnls = pytest.importorskip("scipy.optimize").nnls
    verts, point = case
    poly = landscape.Polytope("drawn", tuple(landscape.FisherPoint(v) for v in verts))
    block = np.vstack([verts.T, np.ones(len(verts))])
    target = np.concatenate([point, [1.0]])
    w, _ = nnls(block, target)
    inside = np.max(np.abs(block @ w - target)) <= landscape.MEMBERSHIP_TOL
    assert landscape.polytope_contains(poly, point) == inside


# ------------------------------------------------------------ product plane

def test_product_fill_balanced_point():
    st = landscape.product_state_for_point((4.0, 4.0, 4.0), 6)
    np.testing.assert_allclose(np.abs(st.spec.c), np.full(3, 1 / math.sqrt(3)),
                               atol=1e-12)
    np.testing.assert_allclose(qfi.fisher_triple(st), [4, 4, 4], atol=1e-8)


def test_product_fill_edge_point():
    st = landscape.product_state_for_point((2.0, 4.0, 6.0), 6)
    c2 = np.asarray(st.spec.c) ** 2
    np.testing.assert_allclose(c2, [2 / 3, 1 / 3, 0.0], atol=1e-12)
    np.testing.assert_allclose(qfi.fisher_triple(st), [2, 4, 6], atol=1e-8)


def test_product_fill_rejects_points_off_the_plane():
    with pytest.raises(ValidationError):
        landscape.product_state_for_point((4.0, 4.0, 5.0), 6)
    with pytest.raises(ValidationError):
        landscape.product_state_for_point((7.0, 5.0, 0.0), 6)


# ------------------------------------------------------------ noise scaling

def test_noise_scale_frozen_values():
    assert landscape.noise_scale(0.6, 4) == pytest.approx(0.36 / 0.65, abs=1e-15)
    assert landscape.noise_scale(0.5, 4) == pytest.approx(4 / 9, abs=1e-15)
    assert landscape.noise_scale(1.0, 4) == pytest.approx(1.0)
    assert landscape.noise_scale(0.0, 4) == 0.0


@pytest.mark.parametrize("p", [-0.1, 1.5, math.nan, math.inf])
def test_noise_scale_rejects_weights_outside_the_unit_interval(p):
    with pytest.raises(ValidationError, match=r"out of \[0, 1\]"):
        landscape.noise_scale(p, 4)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_noise_weight_inverts_scale(n):
    for p in np.linspace(0.0, 1.0, 11):
        s = landscape.noise_scale(float(p), n)
        assert landscape.noise_weight_for_scale(s, n) == pytest.approx(float(p),
                                                                       abs=1e-12)
    with pytest.raises(ValidationError):
        landscape.noise_weight_for_scale(1.5, n)


def test_noise_line_matches_scaling_on_ghz():
    grid = np.linspace(0.0, 1.0, 11)
    res = landscape.noise_line(states.ghz(4, "z"), grid)
    assert res.max_residual <= 1e-9
    scales = [landscape.noise_scale(float(p), 4) for p in grid]
    assert all(b >= a for a, b in zip(scales, scales[1:]))
    first = res.entries[0]
    np.testing.assert_allclose(first.measured.p, [0, 0, 0], atol=1e-12)
    assert first.measured.provenance.kind == "white_noise_mix"


@pytest.mark.parametrize("sample, sizes", [
    (lambda: landscape.noise_line(states.ghz(8, "x"), np.linspace(0.0, 1.0, 11)), set()),
    # product_bloch turns each qubit with the N = 1 operators, via j_direction
    (lambda: landscape.sample_product_polytope(8, 5, seed=11), {1}),
], ids=["noise_line", "sample_product_polytope"])
def test_mixed_samplers_memoize_no_dense_collective_operator(sample, sizes, monkeypatch):
    # each J of the mixed route is built for its product and dropped after it
    cached, read = collective._collective_cached, set()
    cached.cache_clear()
    monkeypatch.setattr(collective, "_collective_cached",
                        lambda axis, n_qubits: read.add(n_qubits) or cached(axis, n_qubits))
    sample()
    assert read == sizes
    assert cached.cache_info().currsize == 3 * len(sizes)


# ------------------------------------------------------------ realizing states

def test_realize_product_point_interior():
    rng = np.random.default_rng(8)
    pts = landscape.landmark_points(4)
    verts = np.array([pts[k].p for k in
                      ("product_x", "product_y", "product_z", "origin")])
    for _ in range(10):
        target = rng.dirichlet(np.ones(4)) @ verts
        st = landscape.realize_product_point(target, 4)
        np.testing.assert_allclose(qfi.fisher_triple(st), target, atol=1e-8)


@pytest.mark.parametrize("realize, q, n", [
    (landscape.realize_dicke_point, (-10.0, 5.0, 5.0), 8),
    (landscape.realize_product_point, (-2.0, 1.0, 1.0), 4)], ids=["dicke", "product"])
def test_realize_rejects_points_below_the_cone(realize, q, n):
    # a negative component with a sum <= 0 is not the origin of the cone
    with pytest.raises(ValidationError, match="outside the"):
        realize(np.array(q), n)


def test_realize_product_point_edges():
    st = landscape.realize_product_point(np.zeros(3), 4)
    assert st.spec.kind == "completely_mixed"
    with pytest.raises(ValidationError):
        landscape.realize_product_point(np.array([8.0, 8.0, 8.0]), 4)


def test_sample_product_polytope_round_trip():
    pts = landscape.sample_product_polytope(4, 5, seed=11)
    again = landscape.sample_product_polytope(4, 5, seed=11)
    assert all(np.array_equal(a.p, b.p) for a, b in zip(pts, again))
    poly = landscape.named_polytope("product", 4)
    for point in pts:
        assert landscape.polytope_contains(poly, point)
        rebuilt = states.from_spec(point.provenance)
        np.testing.assert_allclose(qfi.fisher_triple(rebuilt), point.p, atol=1e-9)


def test_sample_dicke_plane_coplanar_and_seeded():
    pts = landscape.sample_dicke_plane(8, 25, seed=3)
    again = landscape.sample_dicke_plane(8, 25, seed=3)
    assert all(np.array_equal(a.p, b.p) for a, b in zip(pts, again))
    for point in pts:
        assert abs(float(point.p.sum()) - 80.0) <= 1e-8
        assert np.all(point.p >= -1e-9)
    with pytest.raises(ValidationError):
        landscape.sample_dicke_plane(6, 5, seed=0)


# ------------------------------------------------------------ closed form

def _balanced_kets(n, rotate):
    """2^N x 3 kets of the balanced Dicke states along x, y, z: rotate(u, D_z)
    applies the 2x2 u to every qubit."""
    weight = np.array([bin(i).count("1") for i in range(2 ** n)])
    dz = (weight == n // 2) / math.sqrt(math.comb(n, n // 2)) + 0j
    return np.stack([rotate(u, dz) for u in (HADAMARD, Y_ROT)] + [dz], axis=1)


def _each_qubit(u, v, n):
    t = v.reshape((2,) * n)
    for axis in range(n):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [axis])), 0, axis)
    return t.reshape(-1)


def _collective_times(axis, kets, n):
    """J_axis kets, one bit flip per qubit; sigma_y |b> = i (-1)^b |1 - b>."""
    idx = np.arange(2 ** n)
    out = np.zeros_like(kets)
    for s in range(n):
        bit = (idx >> s & 1)[:, None]
        flipped = kets[idx ^ (1 << s)]
        out += {"x": 0.5 * flipped, "y": np.where(bit, 0.5j, -0.5j) * flipped,
                "z": (0.5 - bit) * kets}[axis]
    return out


@pytest.mark.parametrize("n", [4, 8, 12])
def test_dicke_plane_model_matches_the_register_route(n):
    # G and M entry by entry against 2^N kets: dense helper operators at N = 4
    # and 8, bit flips at N = 12, where a dense J takes 268 MB
    if n < 12:
        kets = _balanced_kets(n, lambda u, v: helpers.kron_chain([u] * n) @ v)
        moved = [helpers.collective_op(axis, n) @ kets for axis in "xyz"]
    else:
        kets = _balanced_kets(n, lambda u, v: _each_qubit(u, v, n))
        moved = [_collective_times(axis, kets, n) for axis in "xyz"]
    gram, forms = landscape._dicke_plane_model(n)
    assert np.max(np.abs(gram - kets.conj().T @ kets)) <= 1e-12 * n * n
    for form, jd in zip(forms, moved):
        assert np.max(np.abs(form - 4.0 * jd.conj().T @ jd)) <= 1e-12 * n * n
    assert not gram.flags.writeable and not forms.flags.writeable


def test_closed_form_needs_no_register_operator():
    landscape._dicke_plane_model.cache_clear()
    collective._collective_cached.cache_clear()
    tracemalloc.start()
    try:
        triple = landscape.closed_form_triple(np.array([1.0, 0.0, 0.0]), 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(triple, [0.0, 84.0, 84.0], atol=1e-9)
    assert peak < 5 * 2 ** 20
    assert collective._collective_cached.cache_info().misses == 0
    with pytest.raises(DimensionCapError):
        landscape.closed_form_triple(np.array([1.0, 0.0, 0.0]), 16)


def test_normalized_amplitudes_unit_gram_norm():
    rng = np.random.default_rng(3)
    alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
    a = landscape.normalized_amplitudes(alpha, 8)
    # rebuild the Gram matrix from hand-rotated kets
    dz = states.dicke(8, 4, "z").vector
    kets = [helpers.kron_chain([u] * 8) @ dz for u in (HADAMARD, Y_ROT, np.eye(2))]
    gram = np.array([[ki.conj() @ kj for kj in kets] for ki in kets])
    assert complex(a.conj() @ gram @ a).real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError, match="all zero"):
        landscape.normalized_amplitudes([0, 0, 0], 8)


@pytest.mark.parametrize("name", ["normalized_amplitudes", "closed_form_triple",
                                  "closed_form_check"])
@pytest.mark.parametrize("alpha, n, message", [
    ([1.0, -1.0, 1.0], 4, "vanishes"),  # the N = 4 kets are linearly dependent
    ([1e-200, -1e-200, 1e-200], 4, "vanishes"),
    ([math.inf, 0.0, 0.0], 8, "finite"),
    ([math.nan, 0.0, 0.0], 8, "finite"),
])
def test_dicke_plane_amplitudes_must_be_finite_and_not_vanish(name, alpha, n, message):
    with pytest.raises(ValidationError, match=message):
        getattr(landscape, name)(np.array(alpha), n)


def test_normalized_amplitudes_are_scale_free():
    alpha = np.array([1.0, 2j, -0.5])
    want = landscape.normalized_amplitudes(alpha, 8)
    for scale in (1e-200, 1e200):
        np.testing.assert_allclose(landscape.normalized_amplitudes(scale * alpha, 8),
                                   want, rtol=1e-15, atol=0)


def test_overlap_constant_is_independent_matrix_element():
    # <D_x| J_y^2 |D_z> built from scratch
    dz = states.dicke(8, 4, "z").vector
    dx = helpers.kron_chain([HADAMARD] * 8) @ dz
    jy = helpers.collective_op("y", 8)
    q_val = complex(dx.conj() @ (jy @ (jy @ dz)))
    assert q_val.imag == pytest.approx(0.0, abs=1e-12)
    assert q_val.real == pytest.approx(7.5, abs=1e-12)
    rep = landscape.closed_form_check(np.array([1.0, 1.0, 1.0]), 8)
    assert rep.q_value == pytest.approx(q_val.real, abs=1e-12)


@pytest.mark.parametrize("n", [4, 8, 12])
def test_closed_form_matches_direct_diagonal(n):
    # N = 4 and 12 (N = 4 mod 8) give the x-z pair the opposite sign; at
    # N = 12 the dense J cost about a second, so two draws suffice there
    rng = np.random.default_rng(21)
    for _ in range(2 if n == 12 else 10):
        alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
        rep = landscape.closed_form_check(alpha, n)
        assert rep.max_residual <= 1e-10
        assert rep.max_offdiagonal <= 1e-9
        np.testing.assert_allclose(rep.predicted, rep.direct, atol=1e-10)


def test_closed_form_vertex_and_edge_midpoint():
    vertex = landscape.closed_form_check(np.array([1.0, 0.0, 0.0]), 8)
    np.testing.assert_allclose(vertex.direct, [0.0, 40.0, 40.0], atol=1e-9)
    # equal-weight x/y combination with a quarter-wave phase: edge midpoint
    mid = landscape.closed_form_check(np.array([1j, 1.0, 0.0]), 8)
    np.testing.assert_allclose(mid.direct, [20.0, 20.0, 40.0], atol=1e-9)


def test_closed_form_requires_multiple_of_four():
    with pytest.raises(ValidationError):
        landscape.closed_form_check(np.array([1.0, 0.0, 0.0]), 6)


def test_alpha_inverse_interior_point():
    for q, n in (((30.0, 20.0, 30.0), 8), ((8.0, 8.0, 8.0), 4),
                 ((4.0, 8.0, 12.0), 4), ((10.0, 10.0, 4.0), 4)):
        a = landscape.alpha_for_point(np.array(q), n)
        st = states.dicke_superposition(a, n)
        np.testing.assert_allclose(qfi.fisher_triple(st), q, atol=1e-6)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.sampled_from([4, 8]),
       w=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda w: sum(w) > 1e-3))
def test_alpha_inverse_realizes_every_triangle_point(n, w):
    # the inverse is exact: any convex weights on the three Dicke landmarks,
    # vertices and edges included, come back through the direct QFI
    pts = landscape.landmark_points(n)
    verts = np.array([pts[k].p for k in ("dicke_x", "dicke_y", "dicke_z")])
    target = np.array(w) / sum(w) @ verts
    a = landscape.alpha_for_point(target, n)
    realized = qfi.fisher_triple(states.dicke_superposition(a, n))
    assert np.max(np.abs(realized - target)) <= 1e-9 * n * n


def test_alpha_inverse_validates_plane():
    with pytest.raises(ValidationError):
        landscape.alpha_for_point(np.array([30.0, 20.0, 31.0]), 8)
    with pytest.raises(ValidationError):
        landscape.alpha_for_point(np.array([np.nan, 40.0, 40.0]), 8)
    with pytest.raises(ValidationError):
        landscape.realize_dicke_point(np.array([np.nan, 10.0, 10.0]), 8)
    with pytest.raises(ValidationError):
        landscape.realize_product_point(np.array([np.nan, 1.0, 1.0]), 4)


def test_alpha_inverse_cannot_reach_zero_component_boundary():
    # the cross term cannot cancel the diagonal: F_l = 0 forces the other two
    # amplitudes to vanish, so generic boundary points are unreachable
    with pytest.raises(NumericalError):
        landscape.alpha_for_point(np.array([64.0, 16.0, 0.0]), 8)


def test_realize_dicke_point_in_cone():
    rng = np.random.default_rng(14)
    pts = landscape.landmark_points(8)
    verts = np.array([pts[k].p for k in ("dicke_x", "dicke_y", "dicke_z", "origin")])
    for i in range(5):
        target = rng.dirichlet(np.ones(4)) @ verts
        st = landscape.realize_dicke_point(target, 8, seed=i)
        np.testing.assert_allclose(qfi.fisher_triple(st), target, atol=1e-6)
    with pytest.raises(ValidationError):
        landscape.realize_dicke_point(np.array([40.0, 40.0, 40.0]), 8)


# ------------------------------------------------------------ sampled surveys

def test_sampled_product_points_never_flag_separability():
    # 100 random interior points of the product polytope, realized explicitly
    rng = np.random.default_rng(2026)
    pts = landscape.landmark_points(6)
    verts = np.array([pts[k].p for k in
                      ("product_x", "product_y", "product_z", "origin")])
    watched = ("separable_", "kprod_", "biseparable_", "variance_floor",
               "spectral_")
    for _ in range(100):
        target = rng.dirichlet(np.ones(4)) @ verts
        st = landscape.realize_product_point(target, 6)
        np.testing.assert_allclose(qfi.fisher_triple(st), target, atol=1e-6)
        reports, _ = criteria.evaluate_all(st)
        fired = [r.criterion_id for r in reports
                 if r.violated and r.criterion_id.startswith(watched)]
        assert fired == [], (target, fired)


def test_sampled_dicke_cone_points_flag_genuine_entanglement():
    # 100 random cone points; those above the biseparable sum ceiling must be
    # caught by the genuine-multipartite sum criterion
    rng = np.random.default_rng(2027)
    pts = landscape.landmark_points(8)
    verts = np.array([pts[k].p for k in ("dicke_x", "dicke_y", "dicke_z", "origin")])
    flagged = 0
    for i in range(100):
        target = rng.dirichlet(np.ones(4)) @ verts
        st = landscape.realize_dicke_point(target, 8, seed=1000 + i)
        triple = qfi.fisher_triple(st)
        np.testing.assert_allclose(triple, target, atol=1e-6)
        if float(triple.sum()) > 8 * 8 + 1:
            reports, _ = criteria.evaluate_all(st)
            rep = next(r for r in reports if r.criterion_id == "biseparable_sum")
            assert rep.violated and rep.implication == "genuine_multipartite"
            flagged += 1
    assert flagged > 10  # the sampler reaches the region above the ceiling
