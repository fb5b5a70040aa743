"""Boundary model: Heisenberg group, C-circles, contact planes, chords."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chcrown import GeometryError, HeisenbergPoint, T_REAL, ccircle_from_polar
from chcrown.core import hermitian_product
from chcrown.heisenberg import (
    AffineDisk,
    apply_to_circle,
    apply_to_point,
    dilation_element,
    disk_intersection_segment,
    heisenberg_inverse,
    heisenberg_multiply,
    incidence_residual,
    polar_from_center_radius,
    rotation_element,
    translation_element,
)
from chcrown import crown

coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@given(coords, coords, coords)
@settings(max_examples=50)
def test_lift_roundtrip(x, y, v):
    p = HeisenbergPoint(complex(x, y), v)
    lift = p.lift()
    # lifts are null
    assert abs(complex(hermitian_product(lift.data, lift.data))) < 1e-9 * (1 + x * x + y * y) ** 2
    q = HeisenbergPoint.from_lift(lift)
    assert q.z == pytest.approx(p.z, abs=1e-12)
    assert q.v == pytest.approx(p.v, abs=1e-12)


def test_from_lift_accepts_any_scale_and_infinity():
    p = HeisenbergPoint(1.5 - 0.5j, 2.0)
    scaled = 3.7j * p.lift().data
    q = HeisenbergPoint.from_lift(scaled)
    assert q.z == pytest.approx(p.z) and q.v == pytest.approx(p.v)
    assert HeisenbergPoint.from_lift(np.array([1.0, 0, 0], dtype=complex)).at_infinity
    with pytest.raises(GeometryError):
        HeisenbergPoint.from_lift(np.zeros(3, dtype=complex))


@given(coords, coords, coords, coords, coords, coords)
@settings(max_examples=50)
def test_group_law_inverse(ax, ay, av, bx, by, bv):
    p = HeisenbergPoint(complex(ax, ay), av)
    q = HeisenbergPoint(complex(bx, by), bv)
    prod = heisenberg_multiply(p, q)
    back = heisenberg_multiply(prod, heisenberg_inverse(q))
    assert back.z == pytest.approx(p.z, abs=1e-9)
    assert back.v == pytest.approx(p.v, abs=1e-9)


def test_translation_realizes_group_law():
    w, s = 0.7 - 0.3j, 1.1
    g = translation_element(w, s)
    p = HeisenbergPoint(0.2 + 0.5j, -0.4)
    moved = apply_to_point(g, p)
    expected = heisenberg_multiply(HeisenbergPoint(w, s), p)
    assert moved.z == pytest.approx(expected.z, abs=1e-12)
    assert moved.v == pytest.approx(expected.v, abs=1e-12)


def test_dilation_and_rotation_actions():
    p = HeisenbergPoint(1.0 + 1.0j, 0.8)
    d = apply_to_point(dilation_element(2.0), p)
    assert d.z == pytest.approx(2.0 * p.z) and d.v == pytest.approx(4.0 * p.v)
    r = apply_to_point(rotation_element(math.pi / 2), p)
    assert r.z == pytest.approx(1j * p.z) and r.v == pytest.approx(p.v)
    with pytest.raises(GeometryError):
        dilation_element(-1.0)


@given(coords, coords, coords, st.floats(min_value=0.1, max_value=8.0))
@settings(max_examples=50)
def test_polar_center_radius_roundtrip(x, y, v, r):
    center = HeisenbergPoint(complex(x, y), v)
    circle = ccircle_from_polar(polar_from_center_radius(center, r))
    assert circle.finite
    assert complex(circle.center.z) == pytest.approx(center.z, abs=1e-9)
    assert float(circle.center.v) == pytest.approx(center.v, abs=1e-9)
    assert circle.radius == pytest.approx(r, abs=1e-9)


@given(st.floats(min_value=-math.pi, max_value=math.pi))
@settings(max_examples=50)
def test_circle_points_lie_on_circle_and_contact_plane(theta):
    circle = ccircle_from_polar(polar_from_center_radius(HeisenbergPoint(0.4 - 0.2j, 0.3), 1.7))
    p = circle.point_at(theta)
    assert incidence_residual(circle, p) < 1e-9
    # the contact plane at the center contains every point of the circle
    assert abs(circle.contact_plane().evaluate(p)) < 1e-9
    assert circle.angle_of(p) == pytest.approx(theta, abs=1e-9)


def test_vertical_circle_has_no_chart():
    vertical = ccircle_from_polar(np.array([0.5, 1.0, 0.0], dtype=complex))
    assert vertical.vertical
    with pytest.raises(GeometryError):
        vertical.point_at(0.0)
    with pytest.raises(GeometryError):
        AffineDisk(vertical)


def test_isometries_map_circles_to_circles():
    circle = ccircle_from_polar(polar_from_center_radius(HeisenbergPoint(1.0 + 0j, 0.0), 0.9))
    g = translation_element(0.3 + 0.4j, -0.2)
    moved = apply_to_circle(g, circle)
    for theta in (0.0, 1.0, 2.5):
        p = apply_to_point(g, circle.point_at(theta))
        assert incidence_residual(moved, p) < 1e-8


def test_affine_disk_membership_and_height():
    circle = ccircle_from_polar(polar_from_center_radius(HeisenbergPoint(0j, 0.0), 1.0))
    disk = AffineDisk(circle)
    assert disk.contains_projection(0.5 + 0.2j)
    assert not disk.contains_projection(2.0 + 0j)
    center_point = disk.point_over(0j)
    assert center_point.v == pytest.approx(0.0)
    with pytest.raises(GeometryError):
        disk.point_over(3.0 + 0j)


def test_chord_segment_against_closed_form():
    # two crown disks that genuinely share a chord
    t = 0.41
    d1 = AffineDisk(ccircle_from_polar(crown.alpha1_polar(t)))
    d2 = AffineDisk(ccircle_from_polar(crown.alpha2_polar(t)))
    seg = disk_intersection_segment(d1, d2)
    assert seg is not None and not seg.degenerate
    lo, hi = crown.chord_bounds(t)
    got = sorted(complex(p.z).real for p in seg.endpoints())
    assert got[0] == pytest.approx(lo, abs=1e-9)
    assert got[1] == pytest.approx(hi, abs=1e-9)
    # the carrier line is the closed-form chord line
    k1, k2 = crown.chord_line(t)
    for p in seg.sample(9):
        z = complex(p.z)
        assert z.imag == pytest.approx(k1 * z.real + k2, abs=1e-9)


@pytest.mark.parametrize("t", [0.405, 0.41, T_REAL])
def test_chord_sample_lifts_equal_the_point_lifts(t):
    # the array lifts feed the disk ladder and the report; they must be the
    # per-point lifts to the last bit, not merely close
    d1 = AffineDisk(ccircle_from_polar(crown.alpha1_polar(t)))
    d2 = AffineDisk(ccircle_from_polar(crown.alpha2_polar(t)))
    seg = disk_intersection_segment(d1, d2)
    for n in (2, 257, 513):
        want = np.stack([p.lift().data for p in seg.sample(n)])
        assert np.array_equal(seg.sample_lifts(n), want)


def test_disjoint_disks_share_no_segment():
    d1 = AffineDisk(ccircle_from_polar(polar_from_center_radius(HeisenbergPoint(0j, 0.0), 1.0)))
    d2 = AffineDisk(ccircle_from_polar(polar_from_center_radius(HeisenbergPoint(5.0 + 0j, 0.0), 1.0)))
    assert disk_intersection_segment(d1, d2) is None


def test_parallel_contact_planes_raise():
    d1 = AffineDisk(ccircle_from_polar(polar_from_center_radius(HeisenbergPoint(0j, 0.0), 1.0)))
    d2 = AffineDisk(ccircle_from_polar(polar_from_center_radius(HeisenbergPoint(0j, 1.0), 2.0)))
    with pytest.raises(GeometryError):
        disk_intersection_segment(d1, d2)
