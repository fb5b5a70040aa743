"""Crown circles, arcs, hats, cutting disks, and the two extremal minima."""

import dataclasses
import math
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chcrown import (
    ARC_NAMES,
    AffineDisk,
    DirichletConfig,
    GeometryError,
    HeisenbergPoint,
    PARAM_MAX,
    Scene,
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
from chcrown import crown, dirichlet, heisenberg
from chcrown.core import fixed_points_boundary, hermitian_product
from chcrown.triangle import Q0, coefficients

R2 = math.sqrt(2.0)
U0 = math.sqrt(3.0 * R2 - 4.0)
V0 = math.sqrt(2.0 * R2 - 1.0)

params = st.floats(min_value=0.3751, max_value=PARAM_MAX,
                   allow_nan=False, allow_infinity=False)


def _report(config, name):
    """The arc's report, its family's base map solved here rather than by a scene."""
    base = fixed_points_boundary(crown.base_map(config.gens, name[:-1]))
    return arc_report(config, name, base)


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
    beta = fixed_points_boundary(crown.base_map(config_041.gens, "beta"))
    polars = crown.crown_circle_polars(config_041, beta)
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


def test_all_pairs_unlinked_below_two_fifths():
    reports = linked_pair_report(Scene(0.39))
    assert len(reports) == 28
    assert all(r.value > 0.0 for r in reports)


def test_some_pairs_link_above_two_fifths():
    reports = linked_pair_report(Scene(0.41))
    linked = [r for r in reports if not r.value > 0.0]
    assert len(linked) == 16


_CLOSED_FORMS = ("alpha1_polar", "alpha2_polar", "alpha4_polar", "beta_polar_scaled",
                 "linking_alpha_beta_closed", "linking_alpha_alpha_closed", "alpha4_chart",
                 "clearance_objective", "blocking_minimum_at")


def _bits(value):
    """The arrays a closed form's result is made of, for bitwise comparison."""
    if isinstance(value, crown.ChartedCircle):
        return [np.asarray(value.t), value.circle.polar,
                value.forward.matrix, value.backward.matrix]
    return [np.asarray(value)]


@pytest.mark.parametrize("name", _CLOSED_FORMS)
def test_float32_parameter_computes_in_double(name):
    # a narrower input type must not leak into the closed forms: the value
    # at np.float32(0.41) is the double value at the same t, bit for bit
    narrow = np.float32(0.41)
    fn = getattr(crown, name)
    got, want = _bits(fn(narrow)), _bits(fn(float(narrow)))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b), name


# ---------------------------------------------------------------------------
# the alpha4 chart


@pytest.mark.parametrize("t", [0.39, 0.41])
def test_chart_roundtrip_and_incidence(t):
    chart = crown.alpha4_chart(t)
    pol = crown.alpha4_polar(t)
    for th in np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False):
        lift = chart.from_chart(math.cos(th), math.sin(th))
        assert abs(complex(hermitian_product(lift, pol))) < 1e-10
        x, y = crown._to_charts(chart.forward.matrix, t, lift)
        assert x == pytest.approx(math.cos(th), abs=1e-10)
        assert y == pytest.approx(math.sin(th), abs=1e-10)


@pytest.mark.parametrize("t", [0.39, 0.41])
def test_spheres_restrict_to_chart_lines(t):
    # the affine model of each sphere's side function, checked at fresh
    # chart points
    config = DirichletConfig.build(t)
    chart = crown.alpha4_chart(t)
    worst = 0.0
    for sphere, line in zip(config.spheres, chart.sphere_lines(config)):
        for theta in np.linspace(0.3, 2.0 * math.pi, 7, endpoint=False):
            x, y = math.cos(theta), math.sin(theta)
            val = float(sphere.side_of_lifts(chart.from_chart(x, y))[0])
            worst = max(worst, abs(val - (line.k0 + line.k1 * x + line.k2 * y)))
    assert worst < 1e-9


def test_g3_fixed_points_on_chart_closed_form():
    for t in (0.39, 0.41):
        co = coefficients(t)
        chart = crown.alpha4_chart(t)
        from chcrown import fixed_points_boundary

        att, rep = fixed_points_boundary(build_generators(t).g3)
        s = math.sqrt(4.0 * t - 1.0 - 2.0 * t * co.a)
        xf, yf = (t - co.a) / s, co.b / s
        (xa, xr), (ya, yr) = crown._to_charts(chart.forward.matrix, t, np.stack([att, rep]))
        assert math.hypot(xa - xf, ya - yf) < 1e-8
        assert math.hypot(xr + xf, yr + yf) < 1e-8


def test_sphere_lines_one_and_two_are_parallel(config_041):
    # the two directions are parallel, with the closed-form ratios
    # (1-2t)/(4t-1) for the direction and (1-2t) for the constant term
    t = config_041.gens.t
    chart = crown.alpha4_chart(t)
    l1, l2 = chart.sphere_lines(config_041)[:2]
    cross = l1.k1 * l2.k2 - l1.k2 * l2.k1
    scale = max(math.hypot(l1.k1, l1.k2) * math.hypot(l2.k1, l2.k2), 1e-30)
    ratio_dir = (1.0 - 2.0 * t) / (4.0 * t - 1.0)
    for value in (abs(cross) / scale,
                  max(abs(l1.k1 - ratio_dir * l2.k1), abs(l1.k2 - ratio_dir * l2.k2)),
                  abs(l1.k0 - (1.0 - 2.0 * t) * l2.k0)):
        assert value < 1e-9


def test_sphere1_constant_term_closed_form():
    for t in (0.39, 0.41):
        config = DirichletConfig.build(t)
        line = crown.alpha4_chart(t).sphere_lines(config)[0]
        scale = (4.0 * t - 1.0 - 2.0 * t * coefficients(t).a) / 2.0
        printed = (6.0 * t - 2.0) * (8.0 * t - 3.0) / (2.0 * t - 1.0)
        assert line.k0 * scale == pytest.approx(printed, rel=1e-9)


# ---------------------------------------------------------------------------
# arcs and hats


@pytest.mark.parametrize("t", [0.3751, 0.39, 0.41, T_REAL])
def test_host_patterns_and_crossing_counts(t):
    config = DirichletConfig.build(t)
    for name in ARC_NAMES:
        rep = _report(config, name)
        assert rep.pattern_ok, (t, name, rep.hosts, rep.crossing_counts)
        assert rep.hat.interior_margin > 0.0


def test_table1_host_matrix():
    got = table1(Scene(T_REAL))
    assert got == {
        "alpha1": (3, 2), "alpha2": (5, 4), "alpha3": (7, 6), "alpha4": (1, 8),
        "beta1": (3, 4), "beta2": (5, 6), "beta3": (7, 8), "beta4": (1, 2),
    }


def test_mirror_symmetry_of_alpha_arcs(config_041):
    # the complementary half of an alpha circle mirrors the chosen half
    # exactly; beta circles realize the symmetry only after relabeling,
    # so they are not checked here
    for name in ("alpha1", "alpha3"):
        arc = _report(config_041, name).hat.arc
        other = dataclasses.replace(arc, sweep=arc.sweep - 2.0 * math.pi)
        lines = crown._chart_lines([arc.chart], config_041)[0]
        mine, theirs = crown._sphere_crossing_params([arc, other], np.stack([lines, lines]))
        assert len(mine) == len(theirs) > 0
        worst = max(abs(a - b) + (ka != kb) for (a, ka), (b, kb) in zip(mine, theirs))
        segs_a, segs_b = crown._in_domain_segments([arc, other], config_041, [mine, theirs])
        assert len(segs_a) == len(segs_b)
        for (a0, a1), (b0, b1) in zip(segs_a, segs_b):
            worst = max(worst, abs(a0 - b0), abs(a1 - b1))
        assert worst < 1e-9


@pytest.mark.parametrize("t", [0.39, 0.41, T_REAL])
def test_flip_carries_each_alpha_hat_onto_the_mirror_half_of_its_image(t):
    # R = g2^3 I2 sends sphere k to sphere 9 - k, so alpha1 <-> alpha3 and
    # alpha2, alpha4 map to themselves.  The image of a hat sits at arc
    # parameters 2 - s of the image circle's own hat, ends swapped: the
    # other half of the fixed-point diameter, never the hat itself
    scene = Scene(t)
    gens = scene.config.gens
    flip = gens.g2 @ gens.g2 @ gens.g2 @ gens.i2
    for source, target in (("alpha1", "alpha3"), ("alpha3", "alpha1"),
                           ("alpha2", "alpha2"), ("alpha4", "alpha4")):
        hat, own = scene.arc_report(source).hat, scene.arc_report(target).hat
        arc = own.arc

        def image_param(lift):
            theta = crown._chart_angles(arc.chart.forward.matrix, t, flip.apply(lift))
            return float(crown._arc_params(theta, arc.theta_att, arc.sweep))

        ends = [image_param(hat.endpoint_lift(side)) for side in "-+"]
        assert ends == pytest.approx([2.0 - own.s_plus, 2.0 - own.s_minus], abs=1e-12)
        mid = image_param(hat.arc.lift_at((hat.s_minus + hat.s_plus) / 2.0))
        assert min(ends) < mid < max(ends)


def test_hat_sample_lifts_stay_in_domain(config_041):
    hat = _report(config_041, "alpha2").hat
    lifts = hat.sample_lifts(33)
    sides = config_041.side_matrix(lifts)
    # interior samples touch no sphere from outside; endpoints sit on hosts
    assert float(np.max(sides[1:-1].max(axis=1))) < 1e-10
    assert float(np.max(np.abs(sides[[0, -1]].max(axis=1)))) < 1e-8


@given(params, st.sampled_from(crown.ARC_NAMES), st.integers(min_value=2, max_value=40))
@settings(max_examples=20, deadline=None)
def test_hat_sample_lifts_equal_one_lift_at_a_time(t, name, n):
    # the stacked chart lift rounds as one lift at a time: one
    # matrix-vector product and one division per row
    hat = _report(DirichletConfig.build(t), name).hat
    want = np.stack([hat.arc.lift_at(float(s)) for s in np.linspace(hat.s_minus, hat.s_plus, n)])
    assert np.array_equal(hat.sample_lifts(n), want)


def _three_probe_line(chart, sphere):
    """The reference chart line: the sphere's side values at (1, 0), (-1, 0)
    and (0, 1), one lift and one ``side_of_lifts`` call at a time; with the
    largest ``|<p, Q0>|^2 + |<p, v>|^2`` of the three, the size of the terms
    each side value is the difference of."""
    lifts = [chart.from_chart(x, y) for x, y in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0))]
    f10, fm10, f01 = (float(sphere.side_of_lifts(lift)[0]) for lift in lifts)
    k0 = (f10 + fm10) / 2.0
    size = max(abs(hermitian_product(lift, Q0)) ** 2 + abs(hermitian_product(lift, sphere.v)) ** 2
               for lift in lifts)
    return (k0, (f10 - fm10) / 2.0, f01 - k0), size


@given(params, st.sampled_from(crown.ARC_NAMES))
@settings(max_examples=20, deadline=None)
def test_sphere_lines_equal_the_three_probe_definition(t, name):
    # one side_matrix call on the three stacked probes rounds its inner
    # products unlike three one-point calls, so the lines agree to a few
    # ulps of the terms of the side values, not bit for bit
    config = DirichletConfig.build(t)
    chart = _report(config, name).hat.arc.chart
    lines = chart.sphere_lines(config)
    assert len(lines) == 8
    for sphere, line in zip(config.spheres, lines):
        want, size = _three_probe_line(chart, sphere)
        got = (line.k0, line.k1, line.k2)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-14 * size, (t, name, sphere.index)


@pytest.mark.parametrize("t", [0.39, 0.41, T_REAL])
def test_crown_is_fundamental(t):
    cert = crown_fundamental_certificate(Scene(t))
    assert cert["word_residual"] < 1e-10
    assert cert["abutment_gap"] < 1e-9
    assert cert["translate_residual"] < 1e-9


def test_scene_refuses_fixed_points_at_the_parabolic_endpoint():
    # at t = 3/8 both base maps are parabolic: the scene's two-row solve
    # has NaN rows, which must raise, never come back as fixed points
    scene = Scene(0.375)
    for family in ("alpha", "beta"):
        with pytest.raises(GeometryError):
            scene.fixed_points(family)


def test_real_point_crossing_closed_forms(config_real):
    chart = crown.alpha4_chart(T_REAL)
    x1, y1 = math.sqrt(8.0 * R2 - 11.0), 2.0 * R2 - 2.0
    x2, y2 = math.sqrt(16.0 * R2 + 13.0) / 7.0, (4.0 * R2 - 2.0) / 7.0
    lines = chart.sphere_lines(config_real)
    for k, want in ((1, (x1, y1)), (2, (x2, y2)), (7, (-x2, y2)), (8, (-x1, y1))):
        line = lines[k - 1]
        pts = [(math.cos(th), math.sin(th)) for th in line.circle_crossings()]
        got = max(pts, key=lambda p: p[1])
        assert got[0] == pytest.approx(want[0], abs=1e-10)
        assert got[1] == pytest.approx(want[1], abs=1e-10)


def test_real_point_alpha4_hat_endpoints(config_real):
    hat = _report(config_real, "alpha4").hat
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
    hat = _report(config_real, "beta1").hat
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
    _t_star, value = minimize_clearance()
    assert value == pytest.approx(6.5907, abs=1e-3)
    assert value > 1.0


def test_golden_searches_are_pinned_bit_for_bit():
    # the sweep's minima records read these pairs; the search must evaluate
    # the same points to the last bit
    assert minimize_clearance() == (0.414213562331768, 6.590718977419509)
    assert minimize_blocking() == (0.40000000003921743, 0.36167528623311307)


def _clearance_reference(t):
    """The clearance from the configuration's sphere 5 and the alpha4 chart:
    the squared distance of the sphere's chart line from the chart origin."""
    line = crown.alpha4_chart(t).sphere_lines(DirichletConfig.build(t))[4]
    return line.k0 ** 2 / (line.k1 ** 2 + line.k2 ** 2)


def _blocking_reference(t):
    """The blocking minimum from a least-squares quartic through five chord
    points, each lifted on its own and tested against the configuration's
    sphere 3, with its critical points from ``np.roots``."""
    c = coefficients(t)
    k1, k2 = crown._chord_line(c)
    lo, hi = (float(x) for x in crown._chord_bounds(c))
    hi = max(hi, lo)
    plane = AffineDisk(ccircle_from_polar(crown.alpha1_polar(t))).plane
    xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    zs = [complex(x, k1 * x + k2) for x in xs]
    lifts = np.stack([HeisenbergPoint(z, plane.height_at(z)).lift() for z in zs])
    poly = np.polyfit(xs, DirichletConfig.build(t).sphere(3).side_of_lifts(lifts), 4)
    cand = [lo, hi] + [r.real for r in np.roots(np.polyder(poly))
                       if abs(r.imag) < 1e-9 and lo <= r.real <= hi]
    return min(float(np.polyval(poly, x)) for x in cand) / 2.0


SEARCHES = {
    "clearance": (clearance_objective, _clearance_reference, crown._CLEARANCE_WINDOW),
    "blocking": (blocking_minimum_at, _blocking_reference, crown._BLOCKING_WINDOW),
}


def _reference_error(name, ts):
    """Largest relative gap between an objective over ``ts`` and its reference."""
    f, reference, _window = SEARCHES[name]
    want = np.array([reference(float(t)) for t in ts])
    got = f(np.asarray(ts))
    return float(np.max(np.abs(got - want) / np.abs(want))), want, got


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_scan_picks_the_scalar_grid_point_on_the_production_grid(name):
    # the refinement starts at the grid argmin, so the objective must pick
    # the reference's grid point by a margin far above their disagreement
    ts = np.linspace(*SEARCHES[name][2], crown._GOLDEN_GRID)
    err, want, got = _reference_error(name, ts)
    assert err <= 1e-11
    assert int(np.argmin(got)) == int(np.argmin(want))
    low = np.sort(want)
    assert low[1] - low[0] > 1e3 * float(np.max(np.abs(got - want)))


@pytest.mark.parametrize("name", sorted(SEARCHES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_scan_matches_the_scalar_objective_anywhere_in_its_window(name, data):
    lo, hi = SEARCHES[name][2]
    ts = data.draw(st.lists(st.floats(min_value=lo, max_value=hi, allow_nan=False),
                            min_size=1, max_size=8))
    assert _reference_error(name, ts)[0] <= 1e-11


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_objective_on_a_float_is_its_value_on_the_grid(name):
    # the grid scan and the refinement read the one objective: a float call
    # answers a float, bit-equal to the same parameter inside the grid
    f, _reference, window = SEARCHES[name]
    ts = np.linspace(*window, crown._GOLDEN_GRID)
    grid = f(ts)
    for i in (0, 97, crown._GOLDEN_GRID - 1):
        value = f(float(ts[i]))
        assert type(value) is float and value == grid[i]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_golden_minimize_fails_closed_on_a_non_finite_grid_value(bad):
    # argmin picks a NaN (or -inf) at ts[40] and the bracket settles on the
    # wrong but finite (0.38127, 8.25e-4); any non-finite grid value is refused
    ts = np.linspace(0.375, 0.414, crown._GOLDEN_GRID)

    def f(t):
        return np.where(np.asarray(t) == ts[40], bad, (np.asarray(t) - 0.41) ** 2)

    t_star, value = crown.golden_minimize(f, 0.375, 0.414)
    assert math.isnan(t_star) and math.isnan(value)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_golden_minimize_fails_closed_on_a_non_finite_refinement_value(bad):
    # finite on every grid point, but not within 1e-6 of the minimum: a
    # search that checks only the grid returns the finite (0.410001, 1e-12)
    def f(t):
        t = np.asarray(t)
        return np.where(np.abs(t - 0.41) < 1e-6, bad, (t - 0.41) ** 2)

    assert np.all(np.isfinite(f(np.linspace(0.375, 0.414, crown._GOLDEN_GRID))))
    t_star, value = crown.golden_minimize(f, 0.375, 0.414)
    assert math.isnan(t_star) and math.isnan(value)


# ---------------------------------------------------------------------------
# the chord and its blocking sphere


@pytest.mark.parametrize("t", [0.405, 0.41, 0.4141, T_REAL])
def test_chord_bounds_are_honest(t):
    # closed-form bounds must agree with the raw circle-clipping route
    from chcrown import AffineDisk, disk_intersection_segment

    d1 = AffineDisk(ccircle_from_polar(crown.alpha1_polar(t)))
    d2 = AffineDisk(ccircle_from_polar(crown.alpha2_polar(t)))
    seg = disk_intersection_segment(d1, d2)
    lo, hi = crown._chord_bounds(coefficients(t))
    got = sorted((seg.point + x * seg.direction).real for x in (seg.x_lo, seg.x_hi))
    assert got[0] == pytest.approx(lo, abs=1e-9)
    assert got[1] == pytest.approx(hi, abs=1e-9)


def test_chord_degenerates_at_two_fifths():
    lo, hi = crown._chord_bounds(coefficients(0.4))
    assert hi - lo == pytest.approx(0.0, abs=1e-9)
    assert lo == pytest.approx(0.5792352575096974, abs=1e-8)
    # below the tangency the disks no longer share a chord
    lo, hi = crown._chord_bounds(coefficients(0.39))
    assert lo > hi


def test_blocking_minimum_pin_and_argmin():
    assert blocking_minimum_at(0.4) == pytest.approx(0.361675286, abs=1e-6)
    t_star, value = minimize_blocking()
    assert t_star == pytest.approx(0.4, abs=1e-3)
    assert value == pytest.approx(0.3616753, abs=1e-4)


@pytest.mark.parametrize("t", [0.405, 0.41, T_REAL])
def test_blocking_dual_route(t):
    # sampling the honest chord against the blocking sphere must reproduce
    # exactly twice the normalized quartic minimum
    honest = crown.honest_chord_blocking(t, DirichletConfig.build(t).sphere(3))
    assert honest is not None and honest > 0.0
    assert honest == pytest.approx(2.0 * blocking_minimum_at(t), abs=1e-8)


def test_blocking_raises_without_chord():
    with pytest.raises(GeometryError):
        blocking_minimum_at(0.39)


# ---------------------------------------------------------------------------
# cutting-disk disjointness certificates


def _census(certs):
    return Counter(c.mode for c in certs)


def test_certificates_below_two_fifths_are_all_unlinked():
    certs = disk_disjointness_certificates(Scene(0.39))
    assert len(certs) == 28
    assert _census(certs) == {"unlinked": 28}
    assert all(c.disjoint for c in certs)


def test_certificates_at_the_real_point():
    certs = disk_disjointness_certificates(Scene(T_REAL))
    census = _census(certs)
    assert census["unlinked"] == 4
    assert census["blocked"] == 9
    assert census["covered"] == 15
    assert all(c.disjoint for c in certs)


def test_certificates_at_mid_window():
    certs = disk_disjointness_certificates(Scene(0.41))
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


def test_alpha_neighbors_are_blocked():
    for t in (0.41, T_REAL):
        certs = {(c.first, c.second): c for c in disk_disjointness_certificates(Scene(t))}
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


def _runs_grid(starts, stops, shape):
    """The cells of half-open flat-index runs, as a boolean grid."""
    grid = np.zeros(shape[0] * shape[1], dtype=bool)
    for a, b in zip(starts.tolist(), stops.tolist()):
        grid[a:b] = True
    return grid.reshape(shape)


def _reach(comp):
    """A visible component's reachable cells, as a boolean grid."""
    return _runs_grid(comp.starts, comp.stops, (comp.nr, comp.nth))


def _seeded_grid(free, seeds):
    starts, stops = crown.seeded_components(free, np.array(sorted(seeds), dtype=int))
    nth = free.shape[1]
    # ascending, disjoint, non-empty runs that each stay in one row
    assert np.all(starts < stops) and np.all(stops[:-1] <= starts[1:])
    assert np.all(starts // nth == (stops - 1) // nth)
    return _runs_grid(starts, stops, free.shape)


@given(_masks_and_seeds())
@settings(max_examples=300, deadline=None)
def test_run_length_fill_matches_bfs(case):
    free, seeds = case
    assert np.array_equal(_seeded_grid(free, seeds), _bfs_components(free, seeds))


def test_run_length_fill_joins_across_the_angular_seam():
    free = np.array([[1, 0, 0, 1],
                     [0, 0, 0, 1],
                     [1, 1, 0, 0]], dtype=bool)
    reach = _seeded_grid(free, [(1, 3)])
    # (0, 3) wraps to (0, 0); row 2 is cut off, since rows do not wrap
    assert reach.tolist() == [[True, False, False, True],
                              [False, False, False, True],
                              [False, False, False, False]]
    assert not _seeded_grid(free, [(1, 0)]).any()


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
    return _seeded_grid(free, seeds)


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
    hat = _report(config, name).hat
    got = _reach(crown.visible_component(config, hat, nr, nth))
    assert np.array_equal(got, _visible_component_reference(config, hat, nr, nth))


def test_visible_component_equals_the_reference_at_default_size(config_041):
    for name in ARC_NAMES:
        hat = _report(config_041, name).hat
        got = _reach(crown.visible_component(config_041, hat, crown._FLOOD_NR, crown._FLOOD_NTH))
        assert got.shape == (128, 512) and got.any()
        assert np.array_equal(got, _visible_component_reference(config_041, hat, 128, 512))


def _ring_grid(hat, nr, nth):
    """The fill's polar grid of ``hat``'s disk: ring kernel inputs and cell lifts."""
    circle = hat.arc.circle
    plane = crown.AffineDisk(circle).plane
    center = complex(circle.center.z)
    rho = (np.arange(nr) + 0.5) / nr * float(circle.radius)
    spin = np.exp(1j * (np.arange(nth) + 0.5) / nth * 2.0 * math.pi)
    height = (-plane.coeff_const, -plane.coeff_x, -plane.coeff_y)
    z = center + rho[:, None] * spin[None, :]
    v = -(plane.coeff_const + plane.coeff_x * z.real + plane.coeff_y * z.imag)
    lifts = np.stack([((-np.abs(z) ** 2 + 1j * v) / 2.0).ravel(),
                      z.ravel(),
                      np.ones(nr * nth, dtype=complex)], axis=-1)
    return (center, height, rho, spin), lifts


@given(linked_params, st.sampled_from(ARC_NAMES), st.integers(4, 64), st.integers(8, 256))
@settings(max_examples=30, deadline=None)
def test_ring_side_max_is_the_lifted_maximum_within_its_bound(t, name, nr, nth):
    config = DirichletConfig.build(t)
    (center, height, rho, spin), lifts = _ring_grid(_report(config, name).hat, nr, nth)
    q, err = config.ring_quadratics(center, height, rho)
    top = dirichlet.ring_max(q, dirichlet.trig_basis(spin))
    lower, uppers = dirichlet.ring_bounds(q)
    assert top.shape == (nr, nth) and err.shape == lower.shape == (nr,)
    assert uppers.shape == (8, nr)
    assert np.all(np.isfinite(top)) and np.all(err > 0.0)
    sides = config.side_matrix(lifts).T.reshape(8, nr, nth)
    want = np.max(sides, axis=0)
    assert np.all(np.abs(top - want) <= err[:, None])
    # the ring bounds hold every cell of their ring, within the same guard
    assert np.all(lower[:, None] - err[:, None] <= want)
    assert np.all(sides <= uppers[..., None] + err[:, None])


@pytest.mark.parametrize("t", [0.4005, 0.41])
def test_visible_component_on_the_lifts_alone_equals_the_reference(t, monkeypatch):
    # a guard band covering every cell sends every block to the lifts
    monkeypatch.setattr(dirichlet, "_RING_GUARD", math.inf)
    blocks = []
    decide = DirichletConfig.in_boundary_domain

    def counted(self, points):
        blocks.append(len(points))
        return decide(self, points)

    monkeypatch.setattr(DirichletConfig, "in_boundary_domain", counted)
    config = DirichletConfig.build(t)
    nr, nth = 37, 96
    for name in ARC_NAMES:
        hat = _report(config, name).hat
        blocks.clear()
        got = _reach(crown.visible_component(config, hat, nr, nth))
        assert blocks == [8 * nth] * 4 + [5 * nth]
        assert np.array_equal(got, _visible_component_reference(config, hat, nr, nth))


def test_non_finite_spheres_or_planes_free_no_cell(config_041, monkeypatch):
    hat = _report(config_041, "alpha4").hat
    grid, _ = _ring_grid(hat, 16, 64)
    assert _reach(crown.visible_component(config_041, hat, 16, 64)).any()
    broken = list(config_041.spheres)
    # the constructor refuses a NaN lift, so overwrite a valid sphere's
    broken[2] = dataclasses.replace(broken[2])
    nan_lift = np.array([np.nan, 0.0, 1.0], dtype=complex)
    object.__setattr__(broken[2], "v", nan_lift)
    object.__setattr__(broken[2], "_rv", dirichlet._row_form(nan_lift))
    bad_sphere = dataclasses.replace(config_041, spheres=tuple(broken))
    center, (h0, hx, hy), rho, spin = grid
    with np.errstate(invalid="ignore"):
        for config, height in ((bad_sphere, (h0, hx, hy)), (config_041, (math.nan, hx, hy))):
            q, err = config.ring_quadratics(center, height, rho)
            top = dirichlet.ring_max(q, dirichlet.trig_basis(spin))
            lower, uppers = dirichlet.ring_bounds(q)
            assert not np.any(top < -err[:, None]) and not np.any(top > err[:, None])
            assert not np.any(lower > err) and not np.any(np.max(uppers, axis=0) < -err)
        assert not _reach(crown.visible_component(bad_sphere, hat, 16, 64)).any()
        monkeypatch.setattr(heisenberg.ContactPlane, "coeff_const",
                            property(lambda plane: math.nan))
        assert not _reach(crown.visible_component(config_041, hat, 16, 64)).any()


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan),
                               complex(math.inf, 0.0), complex(math.inf, math.nan)])
def test_reachable_is_false_at_non_finite_points(config_041, z):
    # the array lookup that replaced the one-point one: a non-finite point
    # next to reachable ones is never reachable
    comp = crown.visible_component(config_041, _report(config_041, "alpha4").hat, 16, 64)
    got = comp.reachable(np.array([comp.center, z, comp.center]))
    assert got.dtype == bool and got.tolist() == [True, False, True]
    assert comp.reachable(np.array([z, z])).tolist() == [False, False]


def test_a_nan_side_row_never_makes_a_pair_blocked_or_covered(monkeypatch):
    # at the real point the ladder has blocked and covered pairs; with the
    # first sample of every chord made NaN, none may stay blocked or
    # covered, and every chord pair fails on its NaN margin
    scene = Scene(T_REAL)
    for name in ARC_NAMES:
        scene.arc_report(name)
    before = disk_disjointness_certificates(scene)
    assert {"blocked", "covered"} <= {cert.mode for cert in before}
    side_matrix = DirichletConfig.side_matrix

    def poisoned(self, points):
        out = side_matrix(self, points).copy()
        out[::crown._CHORD_SAMPLES] = np.nan
        return out

    monkeypatch.setattr(DirichletConfig, "side_matrix", poisoned)
    after = disk_disjointness_certificates(scene)
    chords = [cert for old, cert in zip(before, after)
              if old.mode in ("blocked", "covered", "separated", "overlapping")]
    assert len(chords) == 24
    assert not any(cert.mode in ("blocked", "covered") or cert.disjoint for cert in chords)
    assert all(math.isnan(cert.margin) for cert in chords)


@pytest.mark.parametrize("t", [0.3751, 0.39, 0.4005, 0.41, T_REAL])
def test_seed_columns_from_arc_angles_equal_the_lifted_ones(t):
    # the flood fill reads its seed columns off the chart angles; they must
    # be the columns of the lifted hat points about the circle centre
    config = DirichletConfig.build(t)
    for name in ARC_NAMES:
        hat = _report(config, name).hat
        center = complex(hat.arc.circle.center.z)
        lifts = hat.sample_lifts(400)
        for nth in (8, 256, 512):
            want = [_lifted_column(lift, center, nth) for lift in lifts]
            got = crown._angle_columns(hat.sample_angles(400), nth)
            assert got.tolist() == want
