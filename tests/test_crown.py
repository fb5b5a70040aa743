"""Crown circles, arcs, hats, cutting disks, and the two extremal minima."""

import math
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chcrown import (
    ARC_NAMES,
    DirichletConfig,
    GeometryError,
    PARAM_MAX,
    T_REAL,
    arc_report,
    blocking_minimum_at,
    build_generators,
    ccircle_from_polar,
    clearance_objective,
    crown_fundamental_certificate,
    disk_disjointness_certificates,
    linked_pair_report,
    minimize_blocking,
    minimize_clearance,
    table1,
)
from chcrown import crown
from chcrown.core import hermitian_product
from chcrown.triangle import coefficients

R2 = math.sqrt(2.0)
U0 = math.sqrt(3.0 * R2 - 4.0)
V0 = math.sqrt(2.0 * R2 - 1.0)

params = st.floats(min_value=0.3751, max_value=PARAM_MAX,
                   allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# circles and linking


@given(params)
@settings(max_examples=25, deadline=None)
def test_polar_radius_closed_forms(t):
    r1 = ccircle_from_polar(crown.alpha1_polar(t)).radius
    assert r1 == pytest.approx(math.sqrt((6.0 - 16.0 * t) / (2.0 * t - 1.0)), abs=1e-10)
    den = 2.0 * t * math.sqrt(6.0 * t - 2.0) + 4.0 * t - 1.0
    r2 = ccircle_from_polar(crown.alpha2_polar(t)).radius
    assert r2 == pytest.approx(math.sqrt((16.0 * t - 6.0) / den), abs=1e-10)


def test_crown_circle_polars_are_a_g2_orbit(config_041):
    polars = crown.crown_circle_polars(config_041)
    assert list(polars) == ["alpha1", "beta1", "alpha2", "beta2",
                            "alpha3", "beta3", "alpha4", "beta4"]
    g2 = config_041.gens.g2
    for i in (1, 2, 3):
        from chcrown.core import projective_distance

        assert projective_distance(g2.apply(polars[f"alpha{i}"]),
                                   polars[f"alpha{i + 1}"]) < 1e-10
        assert projective_distance(g2.apply(polars[f"beta{i}"]),
                                   polars[f"beta{i + 1}"]) < 1e-10


@given(params)
@settings(max_examples=25, deadline=None)
def test_linking_closed_forms(t):
    gens = build_generators(t)
    va = crown.alpha1_polar(t)
    nbr = gens.g2.apply(va) / (2.0 * R2)
    got = crown.linking_value(va, nbr)
    assert got == pytest.approx(crown.linking_alpha_alpha_closed(t), abs=1e-11)
    got = crown.linking_value(va, crown.beta_polar_scaled(t))
    assert got == pytest.approx(crown.linking_alpha_beta_closed(t), abs=1e-11)


def test_linking_value_is_symmetric():
    t = 0.41
    v, w = crown.alpha1_polar(t), crown.beta_polar_scaled(t)
    assert crown.linking_value(v, w) == pytest.approx(crown.linking_value(w, v), rel=1e-12)


def test_all_pairs_unlinked_below_two_fifths(config_039):
    reports = linked_pair_report(config_039)
    assert len(reports) == 28
    assert all(r.unlinked for r in reports)


def test_some_pairs_link_above_two_fifths(config_041):
    reports = linked_pair_report(config_041)
    linked = [r for r in reports if not r.unlinked]
    assert len(linked) == 16


# ---------------------------------------------------------------------------
# the alpha4 chart


@pytest.mark.parametrize("t", [0.39, 0.41])
def test_chart_roundtrip_and_incidence(t):
    chart = crown.alpha4_chart(t)
    pol = crown.alpha4_polar(t)
    for th in np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False):
        lift = chart.from_chart(math.cos(th), math.sin(th))
        assert abs(complex(hermitian_product(lift, pol))) < 1e-10
        x, y = chart.to_chart(lift)
        assert x == pytest.approx(math.cos(th), abs=1e-10)
        assert y == pytest.approx(math.sin(th), abs=1e-10)


@pytest.mark.parametrize("t", [0.39, 0.41])
def test_spheres_restrict_to_chart_lines(t):
    config = DirichletConfig.build(t)
    chart = crown.alpha4_chart(t)
    worst = max(chart.affinity_residual(config.sphere(k)) for k in range(1, 9))
    assert worst < 1e-9


def test_g3_fixed_points_on_chart_closed_form():
    for t in (0.39, 0.41):
        co = coefficients(t)
        chart = crown.alpha4_chart(t)
        from chcrown import fixed_points_boundary

        att, rep = fixed_points_boundary(build_generators(t).g3)
        s = math.sqrt(4.0 * t - 1.0 - 2.0 * t * co.a)
        xf, yf = (t - co.a) / s, co.b / s
        xa, ya = chart.to_chart(att)
        xr, yr = chart.to_chart(rep)
        assert math.hypot(xa - xf, ya - yf) < 1e-8
        assert math.hypot(xr + xf, yr + yf) < 1e-8


def test_sphere_lines_one_and_two_are_parallel(config_041):
    cert = crown.parallel_lines_certificate(config_041)
    for value in cert.values():
        assert value < 1e-9


def test_sphere1_constant_term_closed_form():
    for t in (0.39, 0.41):
        config = DirichletConfig.build(t)
        line = crown.chart_line_coeffs(config, 1, crown.alpha4_chart(t))
        scale = (4.0 * t - 1.0 - 2.0 * t * coefficients(t).a) / 2.0
        assert line.k0 * scale == pytest.approx(crown.printed_k0_sphere1(t), rel=1e-9)


# ---------------------------------------------------------------------------
# arcs and hats


@pytest.mark.parametrize("t", [0.3751, 0.39, 0.41, T_REAL])
def test_host_patterns_and_crossing_counts(t):
    config = DirichletConfig.build(t)
    for name in ARC_NAMES:
        rep = arc_report(config, name)
        assert rep.pattern_ok, (t, name, rep.hosts, rep.crossing_counts)
        assert rep.hat.interior_margin > 0.0


def test_table1_host_matrix(config_real):
    got = table1(config_real)
    assert got == {
        "alpha1": (3, 2), "alpha2": (5, 4), "alpha3": (7, 6), "alpha4": (1, 8),
        "beta1": (3, 4), "beta2": (5, 6), "beta3": (7, 8), "beta4": (1, 2),
    }


def test_mirror_symmetry_of_alpha_arcs(config_041):
    # the complementary half of an alpha circle mirrors the chosen half
    # exactly; beta circles realize the symmetry only after relabeling,
    # so they are not checked here
    for name in ("alpha1", "alpha3"):
        arc = arc_report(config_041, name).hat.arc
        assert crown.mirror_symmetry_residual(arc, config_041) < 1e-9


def test_hat_sample_lifts_stay_in_domain(config_041):
    hat = arc_report(config_041, "alpha2").hat
    lifts = hat.sample_lifts(33)
    sides = config_041.side_matrix(lifts)
    # interior samples touch no sphere from outside; endpoints sit on hosts
    assert float(np.max(sides[1:-1].max(axis=1))) < 1e-10
    assert float(np.max(np.abs(sides[[0, -1]].max(axis=1)))) < 1e-8


@pytest.mark.parametrize("t", [0.39, 0.41, T_REAL])
def test_crown_is_fundamental(t):
    cert = crown_fundamental_certificate(DirichletConfig.build(t))
    assert cert["word_residual"] < 1e-10
    assert cert["abutment_gap"] < 1e-9
    assert cert["translate_residual"] < 1e-9


def test_real_point_crossing_closed_forms(config_real):
    chart = crown.alpha4_chart(T_REAL)
    x1, y1 = math.sqrt(8.0 * R2 - 11.0), 2.0 * R2 - 2.0
    x2, y2 = math.sqrt(16.0 * R2 + 13.0) / 7.0, (4.0 * R2 - 2.0) / 7.0
    for k, want in ((1, (x1, y1)), (2, (x2, y2)), (7, (-x2, y2)), (8, (-x1, y1))):
        line = crown.chart_line_coeffs(config_real, k, chart)
        pts = [(math.cos(th), math.sin(th)) for th in line.circle_crossings()]
        got = max(pts, key=lambda p: p[1])
        assert got[0] == pytest.approx(want[0], abs=1e-10)
        assert got[1] == pytest.approx(want[1], abs=1e-10)


def test_real_point_alpha4_hat_endpoints(config_real):
    hat = arc_report(config_real, "alpha4").hat
    x1, y1 = math.sqrt(8.0 * R2 - 11.0), 2.0 * R2 - 2.0
    em, ep = hat.endpoint_chart("-"), hat.endpoint_chart("+")
    assert max(abs(em[0] - x1), abs(em[1] + y1)) < 1e-9
    assert max(abs(ep[0] + x1), abs(ep[1] + y1)) < 1e-9
    first = -(9.0 + 4.0 * R2 + 12.0 * U0 + 10.0 * R2 * U0) / 7.0
    mid = complex(2.0 - R2 + 2.0 * U0,
                  (4.0 - 6.0 * R2 - 4.0 * U0 - 8.0 * R2 * U0) * V0 / 7.0)
    lm = hat.endpoint_lift("-")
    lp = hat.endpoint_lift("+")
    assert np.max(np.abs(lm / lm[2] - np.array([first, mid, 1.0]))) < 1e-9
    assert np.max(np.abs(lp / lp[2] - np.array([first, complex(-mid.real, mid.imag), 1.0]))) < 1e-9


def test_real_point_beta1_circle_frame(config_real):
    hat = arc_report(config_real, "beta1").hat
    circle = hat.arc.circle
    center = complex(circle.center.z)
    assert center.real == pytest.approx(0.768220064233, abs=1e-9)
    assert abs(center.imag) < 1e-9 and abs(float(circle.center.v)) < 1e-9
    assert circle.radius == pytest.approx(0.873508176574, abs=1e-9)
    depth = 18.0 * R2 * U0 + 26.0 * U0 - 9.0 * R2 - 13.0
    assert depth == pytest.approx(-circle.radius ** 2 / 2.0, abs=1e-9)
    ends = []
    for side in ("-", "+"):
        lift = hat.endpoint_lift(side)
        z = complex((lift / lift[2])[1]) - center
        ends.append((z.real, z.imag))
    want = sorted([(-0.787579577059, -0.377802784984), (-0.184885413857, -0.853717704095)])
    for got, ref in zip(sorted(ends), want):
        assert got[0] == pytest.approx(ref[0], abs=1e-9)
        assert got[1] == pytest.approx(ref[1], abs=1e-9)


# ---------------------------------------------------------------------------
# clearance of the opposite sphere


@pytest.mark.parametrize("t", [0.3751, 0.39, 0.41, T_REAL])
def test_clearance_exceeds_one(t):
    assert clearance_objective(t) > 1.0


def test_clearance_minimum_value():
    _t_star, value = minimize_clearance(grid=256)
    assert value == pytest.approx(6.5907, abs=1e-3)
    assert value > 1.0


def test_golden_searches_are_pinned_bit_for_bit():
    # the sweep's minima records read these pairs; the search must evaluate
    # the same points to the last bit
    assert minimize_clearance(grid=256) == (0.414213562331768, 6.590718977419501)
    assert minimize_blocking(grid=256) == (0.40000000003921743, 0.36167528623312717)


# ---------------------------------------------------------------------------
# the chord and its blocking sphere


@pytest.mark.parametrize("t", [0.405, 0.41, 0.4141, T_REAL])
def test_chord_bounds_are_honest(t):
    # closed-form bounds must agree with the raw circle-clipping route
    from chcrown import AffineDisk, disk_intersection_segment

    d1 = AffineDisk(ccircle_from_polar(crown.alpha1_polar(t)))
    d2 = AffineDisk(ccircle_from_polar(crown.alpha2_polar(t)))
    seg = disk_intersection_segment(d1, d2)
    lo, hi = crown.chord_bounds(t)
    got = sorted(complex(p.z).real for p in seg.endpoints())
    assert got[0] == pytest.approx(lo, abs=1e-9)
    assert got[1] == pytest.approx(hi, abs=1e-9)


def test_chord_degenerates_at_two_fifths():
    lo, hi = crown.chord_bounds(0.4)
    assert hi - lo == pytest.approx(0.0, abs=1e-9)
    assert lo == pytest.approx(0.5792352575096974, abs=1e-8)
    # below the tangency the disks no longer share a chord
    lo, hi = crown.chord_bounds(0.39)
    assert lo > hi


def test_blocking_minimum_pin_and_argmin():
    assert blocking_minimum_at(0.4) == pytest.approx(0.361675286, abs=1e-6)
    t_star, value = minimize_blocking(grid=128)
    assert t_star == pytest.approx(0.4, abs=1e-3)
    assert value == pytest.approx(0.3616753, abs=1e-4)


@pytest.mark.parametrize("t", [0.405, 0.41, T_REAL])
def test_blocking_dual_route(t):
    # sampling the honest chord against the blocking sphere must reproduce
    # exactly twice the normalized quartic minimum
    honest = crown.honest_chord_blocking(t)
    assert honest is not None and honest > 0.0
    assert honest == pytest.approx(2.0 * blocking_minimum_at(t), abs=1e-8)


def test_blocking_raises_without_chord():
    with pytest.raises(GeometryError):
        blocking_minimum_at(0.39)


# ---------------------------------------------------------------------------
# cutting-disk disjointness certificates


def _census(certs):
    return Counter(c.mode for c in certs)


def test_certificates_below_two_fifths_are_all_unlinked(config_039):
    certs = disk_disjointness_certificates(config_039)
    assert len(certs) == 28
    assert _census(certs) == {"unlinked": 28}
    assert all(c.disjoint for c in certs)


def test_certificates_at_the_real_point(config_real):
    certs = disk_disjointness_certificates(config_real)
    census = _census(certs)
    assert census["unlinked"] == 4
    assert census["blocked"] == 9
    assert census["covered"] == 15
    assert all(c.disjoint for c in certs)


def test_certificates_at_mid_window(config_041):
    certs = disk_disjointness_certificates(config_041)
    census = _census(certs)
    assert census == {"blocked": 10, "unlinked": 12, "overlapping": 4, "separated": 2}
    overlapping = sorted((c.first, c.second) for c in certs if not c.disjoint)
    assert overlapping == [("alpha1", "beta4"), ("alpha4", "beta4"),
                           ("beta2", "beta3"), ("beta3", "alpha4")]
    for c in certs:
        if c.mode == "overlapping":
            assert c.witness is not None and c.margin < 0.0
        if c.mode == "blocked":
            assert c.blocker in range(1, 9) and c.margin > 0.0


def test_alpha_neighbors_are_blocked(config_041, config_real):
    for config in (config_041, config_real):
        certs = {(c.first, c.second): c for c in disk_disjointness_certificates(config)}
        cert = certs[("alpha1", "alpha2")]
        assert cert.mode == "blocked"
        assert cert.margin > 0.0


# ---------------------------------------------------------------------------
# run-length flood fill of the visible disk regions


def _bfs_components(free, seeds):
    """Reference fill: 4-neighbour BFS, columns wrap, rows do not."""
    nr, nth = free.shape
    reach = np.zeros_like(free)
    queue = deque((i, j) for i, j in seeds if free[i, j])
    for i, j in queue:
        reach[i, j] = True
    while queue:
        i, j = queue.popleft()
        for ii, jj in ((i - 1, j), (i + 1, j), (i, (j - 1) % nth), (i, (j + 1) % nth)):
            if 0 <= ii < nr and free[ii, jj] and not reach[ii, jj]:
                reach[ii, jj] = True
                queue.append((ii, jj))
    return reach


@st.composite
def _masks_and_seeds(draw):
    nr = draw(st.integers(1, 9))
    nth = draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.3, 0.55, 0.8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    free = rng.random((nr, nth)) < density
    cells = st.tuples(st.integers(0, nr - 1), st.integers(0, nth - 1))
    return free, draw(st.lists(cells, max_size=5))


@given(_masks_and_seeds())
@settings(max_examples=300, deadline=None)
def test_run_length_fill_matches_bfs(case):
    free, seeds = case
    got = crown.seeded_components(free, seeds)
    assert got.dtype == bool and got.shape == free.shape
    assert np.array_equal(got, _bfs_components(free, seeds))


def test_run_length_fill_joins_across_the_angular_seam():
    free = np.array([[1, 0, 0, 1],
                     [0, 0, 0, 1],
                     [1, 1, 0, 0]], dtype=bool)
    reach = crown.seeded_components(free, [(1, 3)])
    # (0, 3) wraps to (0, 0); row 2 is cut off, since rows do not wrap
    assert reach.tolist() == [[True, False, False, True],
                              [False, False, False, True],
                              [False, False, False, False]]
    assert not crown.seeded_components(free, [(1, 0)]).any()


def _visible_component_reference(config, hat, nr, nth, hat_samples=400):
    """Reference flood fill: the stacked (n, 8) side matrix and scalar hat lifts."""
    circle = hat.arc.circle
    plane = crown.AffineDisk(circle).plane
    center = complex(circle.center.z)
    radius = float(circle.radius)
    rho = (np.arange(nr) + 0.5) / nr * radius
    ang = (np.arange(nth) + 0.5) / nth * 2.0 * math.pi
    z = center + rho[:, None] * np.exp(1j * ang)[None, :]
    v = -(plane.coeff_const + plane.coeff_x * z.real + plane.coeff_y * z.imag)
    lifts = np.stack([((-np.abs(z) ** 2 + 1j * v) / 2.0).ravel(),
                      z.ravel(),
                      np.ones(nr * nth, dtype=complex)], axis=-1)
    free = (np.max(config.side_matrix(lifts), axis=1) <= 0.0).reshape(nr, nth)
    seeds = set()
    for lift in hat.sample_lifts(hat_samples):
        j = _lifted_column(lift, center, nth)
        for i in range(nr - 1, max(nr - 6, -1), -1):
            if free[i, j]:
                seeds.add((i, j))
                break
    return crown.seeded_components(free, seeds)


def _lifted_column(lift, center, nth):
    """Angle column of a lifted boundary point about the circle centre."""
    w = complex(lift[1] / lift[2]) - center
    return int((math.atan2(w.imag, w.real) % (2.0 * math.pi)) / (2.0 * math.pi) * nth) % nth


linked_params = st.floats(min_value=0.4005, max_value=PARAM_MAX,
                          allow_nan=False, allow_infinity=False)


@given(linked_params, st.sampled_from(ARC_NAMES), st.integers(4, 64), st.integers(8, 256))
@settings(max_examples=30, deadline=None)
def test_visible_component_equals_the_reference(t, name, nr, nth):
    config = DirichletConfig.build(t)
    hat = arc_report(config, name).hat
    got = crown.visible_component(config, hat, nr, nth).reach
    assert np.array_equal(got, _visible_component_reference(config, hat, nr, nth))


def test_visible_component_equals_the_reference_at_default_size(config_041):
    for name in ARC_NAMES:
        hat = arc_report(config_041, name).hat
        got = crown.visible_component(config_041, hat).reach
        assert got.shape == (128, 512) and got.any()
        assert np.array_equal(got, _visible_component_reference(config_041, hat, 128, 512))


@pytest.mark.parametrize("t", [0.3751, 0.39, 0.4005, 0.41, T_REAL])
def test_seed_columns_from_arc_angles_equal_the_lifted_ones(t):
    # the flood fill reads its seed columns off the chart angles; they must
    # be the columns of the lifted hat points about the circle centre
    config = DirichletConfig.build(t)
    for name in ARC_NAMES:
        hat = arc_report(config, name).hat
        center = complex(hat.arc.circle.center.z)
        lifts = hat.sample_lifts(400)
        for nth in (8, 256, 512):
            want = [_lifted_column(lift, center, nth) for lift in lifts]
            got = crown._angle_columns(hat.sample_angles(400), nth)
            assert got.tolist() == want
