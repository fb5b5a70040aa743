"""The eight spinal spheres: side functions, pair relations, meshes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chcrown import (
    DirichletConfig,
    PARAM_MAX,
    PARAM_MIN,
    expected_to_meet,
    pairwise_relations,
    sphere_mesh,
)
from chcrown.dirichlet import (
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
from chcrown.core import hermitian_product, projective_distance
from chcrown.triangle import Q0

params = st.floats(min_value=PARAM_MIN + 1e-4, max_value=PARAM_MAX,
                   allow_nan=False, allow_infinity=False)


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
    pts = np.concatenate([s.sample_points(24) for s in config.spheres] + [cloud])
    for tol in (0.0, 1e-8, -1e-8):
        want = np.max(config.side_matrix(pts), axis=1) <= tol
        assert np.array_equal(config.in_boundary_domain(pts, tol), want)


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
    clouds = {k: config_041.sphere(k).sample_points(96) for k in (2, 5)}
    a = pair_relation(config_041, 2, 5, clouds)
    b = pair_relation(config_041, 5, 2, clouds)
    assert a.separation == b.separation
    assert a.meets == b.meets


def test_sep3_margin_shrinks_toward_parabolic_end():
    # near t = 3/8 the distance-3 spheres almost touch; with the side
    # function normalized on the center lift of square -2 the margin at
    # 3/8 + 1e-4 comes out just above 0.05 and grows monotonically with t
    margins = []
    for t in (0.3751, 0.39, 0.41, PARAM_MAX):
        rels = pairwise_relations(DirichletConfig.build(t))
        margins.append(min(r.margin for r in rels if r.separation == 3))
    assert 0.0 < margins[0] < 0.06
    assert margins == sorted(margins)


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
    imgs = config_041.sphere(1).sample_points(16) @ config_041.gens.g2.matrix.T
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
