"""The eight spinal spheres: side functions, pair relations, meshes."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chcrown import (
    DirichletConfig,
    GeometryError,
    PARAM_MAX,
    PARAM_MIN,
    expected_to_meet,
    pairwise_relations,
    sphere_mesh,
)
from chcrown import verify
from chcrown.crown import Scene
from chcrown.dirichlet import (
    SpinalSphere,
    _COLLINEAR,
    _Q0_NORM,
    _interleave_margins,
    _row_form,
    _torus_margins,
    canonical_index,
    defining_word,
    fixed_point_lifts,
    fixed_point_side_forms,
    giraud_order3_certificate,
    involution_certificate,
    pair_relation,
    side_pairing_certificate,
    symmetry_certificate,
)
from chcrown.core import box_product, hermitian_product, matrix_phase_distance, projective_distance
from chcrown.triangle import Q0, involution_word

params = st.floats(min_value=PARAM_MIN + 1e-4, max_value=PARAM_MAX,
                   allow_nan=False, allow_infinity=False)


def _sample_points(sphere, n=48):
    """Lift samples covering the sphere: both vertical roots per grid site."""
    cx, cy, half = sphere.shadow_window()
    X, Y = np.meshgrid(np.linspace(cx - half, cx + half, n), np.linspace(cy - half, cy + half, n))
    z = (X + 1j * Y).ravel()
    A, B, C = sphere.vertical_quadratic(z)
    disc = B * B - 4.0 * A * C
    keep = disc >= 0.0
    assert np.any(keep) and abs(A) >= 1e-14
    z, B, root = z[keep], B[keep], np.sqrt(disc[keep])
    blocks = []
    for v in ((-B - root) / (2 * A), (-B + root) / (2 * A)):
        blocks.append(np.stack([(-(z.real**2 + z.imag**2) + 1j * v) / 2.0, z, np.ones_like(z)],
                               axis=-1))
    return np.concatenate(blocks)


def _sampled_meets(config, clouds, j, k):
    """The sampled reference: each sphere's side values on the other's samples
    change sign, or come within the 1e-5 tangency band of zero."""
    vals = np.concatenate([config.sphere(j).side_of_lifts(clouds[k]),
                           config.sphere(k).side_of_lifts(clouds[j])])
    return bool(vals.min() <= 1e-5 and vals.max() >= -1e-5)


def _scalar_torus_margin(p, r):
    """The scalar reference of ``_torus_margins``: one pair, scalar box and
    Hermitian products, and one ``np.roots`` of its quartic."""
    b0, b1, w = box_product(p, r), box_product(Q0, r), box_product(p, Q0)
    h0 = (hermitian_product(b0, b0) + hermitian_product(b1, b1) + hermitian_product(w, w)).real
    h1, c0, c1 = hermitian_product(b0, b1), hermitian_product(b0, w), hermitian_product(b1, w)
    if not np.all(np.isfinite([h0, h1, c0, c1])):
        return math.nan
    if h0 <= 2.0 * abs(h1):
        return -1.0
    f1, f2 = 4.0 * c0 * np.conj(c1) - 2.0 * h0 * h1, h1 * h1
    roots = np.roots([2.0 * f2, f1, 0.0, -np.conj(f1), -2.0 * np.conj(f2)])
    z = np.append(np.exp(1j * np.angle(roots)), 1.0)
    h = h0 - 2.0 * (h1 * z).real
    c2 = 2.0 * np.abs(c0 - c1 * np.conj(z))
    i = int(np.argmin(h * h - c2 * c2))
    return float((h[i] - c2[i]) / (h[i] + c2[i]))


def _scalar_interleave_margin(s, other):
    """The scalar reference of ``_interleave_margins``: one pair, its four
    spine endpoints placed one Hermitian product at a time."""
    e = s.v - hermitian_product(s.v, Q0) / _Q0_NORM * Q0
    lo, hi, *ends = (float(np.angle(hermitian_product(x, e) / hermitian_product(x, Q0)))
                     for sphere in (s, other) for x in sphere.spine_endpoints())
    lo, hi = sorted((lo, hi))
    gap = min(abs(math.remainder(x - y, 2.0 * math.pi)) for x in ends for y in (lo, hi))
    return -gap if (lo < ends[0] < hi) != (lo < ends[1] < hi) else gap


def _scalar_pair_margin(config, j, k):
    """The scalar reference of one pair's margin: the spines for the
    collinear pairs, the scalar torus otherwise."""
    m = np.stack([Q0, config.sphere(j).v, config.sphere(k).v])
    if abs(np.linalg.det(m)) < _COLLINEAR * np.prod(np.linalg.norm(m, axis=1)):
        return _scalar_interleave_margin(config.sphere(j), config.sphere(k))
    return _scalar_torus_margin(m[1], m[2])


def _scalar_certificates(config):
    """The scalar references of the four word certificates: one sphere, one
    word and one vector at a time, the involutions rebuilt from their words."""
    gens = config.gens
    g1, g2, i2 = gens.g1, gens.g2, gens.i2
    eye = np.eye(3, dtype=complex)
    us = {k: config.sphere(k).v for k in range(1, 9)}
    sym = max(projective_distance(g2.apply(Q0), Q0), projective_distance(i2.apply(Q0), Q0))
    for k in range(1, 9):
        rotated, flipped = us[k], i2.apply(us[k])
        for n in range(4):
            if n > 0:
                rotated, flipped = g2.apply(rotated), g2.apply(flipped)
            sym = max(sym, projective_distance(rotated, us[canonical_index(2 * n + k)]),
                      projective_distance(flipped, us[canonical_index(2 * n + 3 - k)]))
    inv = 0.0
    for k in range(1, 9):
        a = gens.evaluate_word(involution_word(k))
        inv = max(inv, matrix_phase_distance((a @ a).matrix, eye),
                  projective_distance(a.apply(Q0), us[k]))
    pairing = matrix_phase_distance((g1 @ g2 @ gens.g3.inverse()).matrix, g2.matrix)
    gamma = g1
    for n in range(4):
        if n > 0:
            gamma = g2 @ gamma @ g2.inverse()
        pairing = max(pairing,
                      projective_distance(gamma.apply(Q0), us[canonical_index(1 + 2 * n)]),
                      projective_distance(gamma.apply(us[canonical_index(4 + 2 * n)]), Q0))
    order3 = 0.0
    for k in range(1, 9):
        ab = gens.evaluate_word(involution_word(k)) @ gens.evaluate_word(involution_word(k + 1))
        order3 = max(order3, matrix_phase_distance((ab @ ab @ ab).matrix, eye))
    return sym, inv, pairing, order3


def _with_lift(config, k, v):
    """``config`` with sphere ``k``'s lift replaced by ``v``, unchecked."""
    sphere = SpinalSphere(k, config.sphere(k).v)
    object.__setattr__(sphere, "v", v)
    object.__setattr__(sphere, "_rv", _row_form(v))
    spheres = list(config.spheres)
    spheres[k - 1] = sphere
    return DirichletConfig(config.gens, tuple(spheres))


def test_index_maps_are_mutually_inverse():
    assert canonical_index(9) == 1 and canonical_index(0) == 8
    words = {defining_word(k) for k in range(1, 9)}
    assert len(words) == 8


def test_sphere_words_generate_the_spheres(config_041):
    # each sphere is the bisector between Q0 and its word image; the word
    # image must therefore lie strictly on the far side
    for k in range(1, 9):
        s = config_041.sphere(k)
        image = s.v
        assert float(s.side_of_lifts(np.array([image]))[0]) > 0.1
        assert abs(projective_distance(Q0, image)) > 1e-3


@pytest.mark.parametrize("v", [[np.nan, 0.0, 1.0], [0.0, np.nan, 1.0], [-1.0, 0.0, np.inf]])
def test_a_non_finite_bisector_lift_is_refused(v):
    # its self-product is NaN or infinite, which the constructor's check
    # must refuse rather than let through
    with np.errstate(invalid="ignore"), pytest.raises(GeometryError):
        SpinalSphere(3, np.array(v, dtype=complex))


@given(params)
@settings(max_examples=20, deadline=None)
def test_center_is_interior(t):
    config = DirichletConfig.build(t)
    sides = config.side_matrix(Q0)[0]
    assert np.all(sides < 0.0)


def test_side_matrix_shape_and_domain_predicate(config_039):
    pts = np.stack([Q0, config_039.sphere(1).v])
    mat = config_039.side_matrix(pts)
    assert mat.shape == (2, 8)
    inside = config_039.in_boundary_domain(pts)
    assert inside.tolist() == [True, False]


@pytest.mark.parametrize("t", [0.3751, 0.39, 0.41, PARAM_MAX])
def test_in_boundary_domain_is_the_side_matrix_maximum(t):
    # sphere samples sit on a sphere, so their largest side value is a few
    # ulps from zero and the predicate's rounding decides them
    config = DirichletConfig.build(t)
    rng = np.random.default_rng(7)
    z = rng.normal(scale=2.0, size=512) + 1j * rng.normal(scale=2.0, size=512)
    v = rng.normal(scale=4.0, size=512)
    cloud = np.stack([(-np.abs(z) ** 2 + 1j * v) / 2.0, z, np.ones_like(z)], axis=-1)
    pts = np.concatenate([_sample_points(s, 24) for s in config.spheres] + [cloud])
    want = np.max(config.side_matrix(pts), axis=1) <= 0.0
    assert np.array_equal(config.in_boundary_domain(pts), want)


@given(params, st.sampled_from([1, 2, 3, 257, 4096]), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_side_values_do_not_depend_on_the_stack(t, n, seed):
    # row i of a stacked call is the one-row call on point i, bit for bit,
    # whatever else is stacked with it: random lifts over six decades of
    # scale, half of them standard lifts [(-|z|^2 + iv)/2, z, 1]
    config = DirichletConfig.build(t)
    rng = np.random.default_rng(seed)
    pts = (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))) * 10.0 ** rng.uniform(
        -3.0, 3.0, size=(n, 1))
    z, v = pts[::2, 1], pts[::2, 0].real
    pts[::2, 0] = (-np.abs(z) ** 2 + 1j * v) / 2.0
    pts[::2, 2] = 1.0
    sides = config.side_matrix(pts)
    free = config.in_boundary_domain(pts)
    assert sides.shape == (n, 8) and free.shape == (n,)
    for i in sorted(set(rng.integers(0, n, size=12).tolist()) | {0, n - 1}):
        assert np.array_equal(config.side_matrix(pts[i])[0], sides[i])
        assert np.array_equal(config.side_matrix(pts[i:i + 2])[0], sides[i])
        assert config.in_boundary_domain(pts[i]).tolist() == [free[i]]
    half = (n + 1) // 2
    assert np.array_equal(config.side_matrix(pts[half:]), sides[half:])
    assert np.array_equal(config.in_boundary_domain(pts[:half]), free[:half])
    for k, sphere in enumerate(config.spheres):
        assert np.array_equal(sphere.side_of_lifts(pts), sides[:, k])


def test_in_boundary_domain_fails_closed_on_non_finite_rows(config_041):
    rows = []
    for col in range(3):
        for bad in (np.nan, np.inf, -np.inf, 1j * np.inf, complex(np.nan, 1.0)):
            row = Q0.copy()
            row[col] = bad
            rows.append(row)
    with np.errstate(invalid="ignore", over="ignore"):
        free = config_041.in_boundary_domain(np.array(rows))
    assert config_041.in_boundary_domain(Q0).tolist() == [True]
    assert not free.any()


@pytest.mark.parametrize("t", [0.3751, 0.39, 0.41, PARAM_MAX])
def test_equivariance_certificates(t):
    config = DirichletConfig.build(t)
    assert symmetry_certificate(config) < 1e-10
    assert involution_certificate(config) < 1e-10
    assert side_pairing_certificate(config) < 1e-10
    assert giraud_order3_certificate(config) < 1e-10


@given(params)
@settings(max_examples=20, deadline=None)
def test_stacked_certificates_match_the_scalar_loops(t):
    # the stacks round each matrix and vector product as the scalar loops
    # do, so the residuals agree far below their 1e-10 tolerance
    config = DirichletConfig.build(t)
    got = (symmetry_certificate(config), involution_certificate(config),
           side_pairing_certificate(config), giraud_order3_certificate(config))
    for a, b in zip(got, _scalar_certificates(config)):
        assert abs(a - b) <= 1e-15, (t, got)


def test_the_involutions_are_built_once_per_configuration(monkeypatch):
    # one stacked evaluation of the eight words, on first use, for both
    # certificates that read them
    config = DirichletConfig.build(0.41)
    calls = []
    evaluate = type(config.gens).evaluate_words
    monkeypatch.setattr(type(config.gens), "evaluate_words",
                        lambda gens, words: calls.append(len(words)) or evaluate(gens, words))
    involution_certificate(config)
    giraud_order3_certificate(config)
    assert calls == [8]
    want = [config.gens.evaluate_word(involution_word(k)).matrix for k in range(1, 9)]
    assert np.array_equal(config.involutions, np.stack(want))


@given(params)
@settings(max_examples=30, deadline=None)
def test_stacked_pair_margins_match_the_scalar_reference(t):
    config = DirichletConfig.build(t)
    for rel in pairwise_relations(config):
        want = _scalar_pair_margin(config, rel.j, rel.k)
        assert abs(rel.margin - want) <= 1e-12, (t, rel, want)
        assert rel.meets == (want <= 0.0), (t, rel, want)


def test_pair_relation_is_one_row_of_the_stack(config_041):
    rels = pairwise_relations(config_041)
    pairs = list(itertools.combinations(range(1, 9), 2))
    assert [(r.j, r.k) for r in rels] == pairs
    for rel, (j, k) in zip(rels, pairs):
        assert pair_relation(config_041, k, j + 8) == rel
    stack = pair_relation(config_041, np.array([5, 1]), np.array([2, 8]))
    assert stack.j.tolist() == [2, 1] and stack.k.tolist() == [5, 8]
    assert stack.margin.tolist() == [rels[9].margin, rels[6].margin]
    assert stack.meets.tolist() == [rels[9].meets, rels[6].meets]


@pytest.mark.parametrize("t", [0.3751, 0.40, PARAM_MAX])
def test_pair_relations_follow_separation(t):
    config = DirichletConfig.build(t)
    rels = pairwise_relations(config)
    assert len(rels) == 28
    for rel in rels:
        assert rel.meets == expected_to_meet(rel.separation), (rel.j, rel.k, rel.separation)
        if not rel.meets:
            assert rel.margin > 0.0


def test_expected_to_meet_cutoff():
    assert expected_to_meet(0) and expected_to_meet(1) and expected_to_meet(2)
    assert not expected_to_meet(3) and not expected_to_meet(4)


def test_pair_relation_is_symmetric(config_041):
    a = pair_relation(config_041, 2, 5)
    b = pair_relation(config_041, 5, 2)
    assert a.separation == b.separation == 3
    assert a.meets == b.meets
    assert a == b


def test_sep3_margin_shrinks_toward_parabolic_end():
    # near t = 3/8 the distance-3 spheres almost touch: the torus margin
    # (h - 2|c|)/(h + 2|c|) is 3.56e-4 at 3/8 + 1e-4 and grows monotonically
    # with t, to 0.244 at sqrt(2) - 1
    margins = []
    for t in (0.3751, 0.39, 0.41, PARAM_MAX):
        rels = pairwise_relations(DirichletConfig.build(t))
        margins.append(min(r.margin for r in rels if r.separation == 3))
    assert 0.0 < margins[0] < 1e-3
    assert margins == sorted(margins)


@given(params)
@settings(max_examples=12, deadline=None)
def test_torus_verdicts_equal_the_sampled_reference(t):
    config = DirichletConfig.build(t)
    clouds = {s.index: _sample_points(s) for s in config.spheres}
    for rel in pairwise_relations(config):
        assert rel.meets == _sampled_meets(config, clouds, rel.j, rel.k), (t, rel)


@given(params)
@settings(max_examples=20, deadline=None)
def test_opposite_pairs_are_collinear_and_do_not_interleave(t):
    # for separation 4 the centre and both defining points span one complex
    # line, so the spines decide; no other pair comes near that line, and no
    # opposite pair's spine endpoints interleave (1.68 rad apart at least)
    config = DirichletConfig.build(t)
    for j, k in itertools.combinations(range(1, 9), 2):
        m = np.stack([Q0, config.sphere(j).v, config.sphere(k).v])
        rel_det = abs(np.linalg.det(m)) / np.prod(np.linalg.norm(m, axis=1))
        margin = pair_relation(config, j, k).margin
        if k - j == 4:
            assert rel_det < 1e-14 < _COLLINEAR
            assert margin == _interleave_margins(config, np.array([j]), np.array([k]))[0] > 1.5
            want = _scalar_interleave_margin(config.sphere(j), config.sphere(k))
            assert abs(margin - want) <= 1e-12
        else:
            assert rel_det > 0.2 > _COLLINEAR
            assert margin == _torus_margins(m[1:2], m[2:3])[0]


def _torus_self_products(p, r):
    """<x, x> on a 361x361 grid of the torus, a along axis 0 and b along axis 1."""
    a = np.linspace(0.0, 2.0 * np.pi, 361)
    ea, eb = np.exp(1j * a)[:, None, None], np.exp(1j * a)[None, :, None]
    # box(u, w) is the form's transform of conj(u x w), with the same self-product
    x = np.cross(p - ea * Q0, r - eb * Q0)
    return (2.0 * x[..., 0] * np.conj(x[..., 2])).real + np.abs(x[..., 1]) ** 2


@pytest.mark.parametrize("t", [0.39, 0.41, PARAM_MAX])
def test_torus_margin_matches_a_torus_grid(t):
    # over b, <x, x> runs between h - 2|c| and h + 2|c|; read both off a grid
    # of the torus and take their ratio where their product is least
    config = DirichletConfig.build(t)
    for j, k in itertools.combinations(range(1, 9), 2):
        if k - j == 4:
            continue
        p, r = config.sphere(j).v, config.sphere(k).v
        xx = _torus_self_products(p, r)
        lo, hi = xx.min(axis=1), xx.max(axis=1)
        i = np.argmin(lo * hi)
        assert _torus_margins(p[None], r[None])[0] == pytest.approx(lo[i] / hi[i], abs=1e-4), (j, k)


def test_torus_margin_is_minus_one_where_h_is_not_positive():
    # no coequidistant pair of the family reaches h0 <= 2|h1|, but arbitrary
    # lifts do: here h0 = 23.5 and |h1| = 11.9, so h = h0 - 2 Re(h1 e^{ia})
    # is negative for some a, and the bisectors meet
    p = np.array([-0.65 + 1.49j, -0.13 - 1.26j, 0.78 + 1.51j])
    r = np.array([1.35 - 0.31j, 0.78 + 1.46j, 0.26 + 1.96j])
    assert _torus_margins(p[None], r[None])[0] == _scalar_torus_margin(p, r) == -1.0
    assert _torus_self_products(p, r).min() <= 0.0


@pytest.mark.parametrize("p1", [1j, 0.3, 0.0])
def test_a_zero_leading_coefficient_takes_the_roots_numpy_gives(p1):
    # with r = [u, 0, 2u] and p a multiple of [u, p1, 2u], h1 = <b0, b1> is
    # exactly 0, so the quartic's leading coefficient 2 h1^2 and its
    # constant term vanish: np.roots strips both and solves a quadratic, or,
    # where c0 = 0 too (p1 = 0), returns no root at all.  Then h = h0, and
    # the least of h - 2|c0 - e^{-ia} c1| is h0 - 2(|c0| + |c1|), at a root
    # of the quadratic unless c0 and c1 are aligned (they are not here)
    u = 1.0 + 1.0j
    p = (1.0 + 0.5j) * np.array([u, p1, 2.0 * u], dtype=complex)
    r = np.array([u, 0.0, 2.0 * u], dtype=complex)
    b0, b1, w = box_product(p, r), box_product(Q0, r), box_product(p, Q0)
    assert hermitian_product(b0, b1) == 0.0
    c0, c1 = hermitian_product(b0, w), hermitian_product(b1, w)
    if p1 == 0.0:
        assert c0 == 0.0
    else:
        assert (c0 / c1).imag != 0.0
    got = _torus_margins(np.stack([p, p]), np.stack([r, r + 1.0]))
    assert got[0] == _scalar_torus_margin(p, r)
    assert got[1] == _scalar_torus_margin(p, r + 1.0)
    h0 = (hermitian_product(b0, b0) + hermitian_product(b1, b1) + hermitian_product(w, w)).real
    c = abs(c0) + abs(c1)
    assert got[0] == pytest.approx((h0 - 2.0 * c) / (h0 + 2.0 * c), abs=1e-15)


def test_non_finite_torus_input_gives_nan_and_fails_the_record(config_041):
    v1, v4 = config_041.sphere(1).v, config_041.sphere(4).v
    bad = v1.copy()
    bad[0] = np.nan
    with np.errstate(invalid="ignore"):
        got = _torus_margins(np.stack([bad, v1, v1]), np.stack([v4, bad * np.inf, v4]))
    assert np.isnan(got[:2]).all() and got[2] == _scalar_torus_margin(v1, v4)
    # a NaN lift of sphere 8 must fail exactly its seven pair records,
    # whatever their separation (4-8 goes to the torus: its determinant is
    # NaN, not collinear), the separation-3 minimum, and each certificate
    # that reads the lift; the other pairs, giraud-order3 and the
    # configuration's own records keep their verdicts
    scene = Scene(0.41)
    scene.config = _with_lift(config_041, 8, np.array([np.nan, 0.0, 1.0], dtype=complex))
    recs = {r.key: r for r in verify._dirichlet_cell(scene)}
    pairs = [key for key in recs if key.startswith("sphere-pair:")]
    assert len(pairs) == 28
    failed = {key for key, r in recs.items() if not r.passed}
    assert failed == {key for key in pairs if key.endswith("-8")} | {
        "sep3-min-margin", "symmetry-rotation", "involution-squares", "side-pairing",
        "fixed-point-side-forms"}
    assert all(math.isnan(recs[key].value) for key in pairs if key.endswith("-8"))


@given(params)
@settings(max_examples=15, deadline=None)
def test_fixed_point_lifts_are_null_and_g3_fixed(t):
    config = DirichletConfig.build(t)
    g3 = config.gens.g3
    for lift in fixed_point_lifts(config):
        assert abs(complex(hermitian_product(lift, lift))) < 1e-9
        assert projective_distance(g3.apply(lift), lift) < 1e-8


@given(params)
@settings(max_examples=15, deadline=None)
def test_fixed_point_side_forms_match_numerics(t):
    config = DirichletConfig.build(t)
    _attracting, repelling = fixed_point_lifts(config)
    sides = config.side_matrix(repelling)[0]
    for key, want in fixed_point_side_forms(t).items():
        assert sides[int(key[1:]) - 1] == pytest.approx(want, abs=1e-9)


def test_sphere_mesh_lies_on_the_sphere(config_041):
    verts, faces = sphere_mesh(config_041.sphere(3), nx=16, ny=16)
    verts = np.asarray(verts, dtype=float)
    faces = np.asarray(faces, dtype=int)
    assert faces.min() >= 1 and faces.max() <= len(verts)
    # mesh vertices are boundary points with vanishing side value
    from chcrown import HeisenbergPoint

    lifts = np.stack([HeisenbergPoint(complex(x, y), v).lift() for x, y, v in verts])
    sides = config_041.sphere(3).side_of_lifts(lifts)
    assert float(np.max(np.abs(sides))) < 1e-8


def test_mesh_equivariance(config_041):
    # g2 carries the samples of sphere 1 onto sphere 3
    imgs = _sample_points(config_041.sphere(1), 16) @ config_041.gens.g2.matrix.T
    imgs = imgs[np.abs(imgs[:, 2]) > 1e-12]
    vals = config_041.sphere(3).side_of_lifts(imgs / imgs[:, 2:3])
    assert float(np.max(np.abs(vals))) < 1e-8


def _loop_sphere_mesh(sphere, nx, ny):
    """Reference mesh: cell-by-cell sheets, one scalar bisection per rim edge."""
    cx, cy, half = sphere.shadow_window()
    X, Y = np.meshgrid(np.linspace(cx - half, cx + half, nx), np.linspace(cy - half, cy + half, ny))
    z = X + 1j * Y
    A, B, C = sphere.vertical_quadratic(z.ravel())
    disc = (B * B - 4.0 * A * C).reshape(z.shape)
    Bm = B.reshape(z.shape)
    inside = disc >= 0.0
    root = np.sqrt(np.where(inside, disc, 0.0))
    verts, faces = [], []
    top = -np.ones(z.shape, dtype=int)
    for i in range(ny):
        for j in range(nx):
            if inside[i, j]:
                top[i, j] = len(verts)
                for r in (root[i, j], -root[i, j]):
                    verts.append((z[i, j].real, z[i, j].imag, (-Bm[i, j] + r) / (2 * A)))
    for i in range(ny - 1):
        for j in range(nx - 1):
            a, b, c, d = top[i, j], top[i, j + 1], top[i + 1, j + 1], top[i + 1, j]
            if min(a, b, c, d) >= 0:
                faces += [(a, b, c), (a, c, d), (a + 1, d + 1, c + 1), (a + 1, c + 1, b + 1)]

    def rim_point(lo, hi):
        for _ in range(60):
            mid = (lo + hi) / 2.0
            _, Bmid, Cmid = sphere.vertical_quadratic(np.asarray([mid]))
            if Bmid[0] * Bmid[0] - 4.0 * A * Cmid[0] >= 0.0:
                lo = mid
            else:
                hi = mid
        _, Bl, _ = sphere.vertical_quadratic(np.asarray([lo]))
        return (lo.real, lo.imag, -Bl[0] / (2 * A))

    for i in range(ny):
        for j in range(nx):
            if not inside[i, j]:
                continue
            for n, (di, dj) in enumerate(((0, 1), (1, 0), (0, -1), (-1, 0))):
                ii, jj = i + di, j + dj
                if 0 <= ii < ny and 0 <= jj < nx and not inside[ii, jj]:
                    verts.append(rim_point(z[i, j], z[ii, jj]))
                    ends = (top[i, j], top[i, j] + 1)[::1 if n < 2 else -1]
                    faces.append((ends[0], len(verts) - 1, ends[1]))
    return np.asarray(verts, dtype=float), np.asarray(faces, dtype=int) + 1


@given(st.floats(min_value=PARAM_MIN + 1e-3, max_value=PARAM_MAX),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=2, max_value=14), st.integers(min_value=2, max_value=14))
@settings(max_examples=25, deadline=None)
def test_sphere_mesh_equals_the_loop_reference(t, k, nx, ny):
    sphere = DirichletConfig.build(t).sphere(k)
    verts, faces = sphere_mesh(sphere, nx=nx, ny=ny)
    want_verts, want_faces = _loop_sphere_mesh(sphere, nx, ny)
    assert np.array_equal(verts, want_verts.reshape(-1, 3))
    assert np.array_equal(faces, want_faces.reshape(-1, 3))
