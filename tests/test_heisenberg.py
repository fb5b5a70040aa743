"""Boundary model: Heisenberg group, C-circles, contact planes, chords."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chcrown import GeometryError, GroupElement, HeisenbergPoint, T_REAL, ccircle_from_polar
from chcrown.core import hermitian_product
from chcrown.heisenberg import (
    AffineDisk,
    dilation_element,
    disk_intersection_segment,
    heisenberg_coordinates,
    translation_element,
)
from chcrown import crown
from chcrown.triangle import coefficients

coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def _polar(center: HeisenbergPoint, radius: float) -> np.ndarray:
    """Positive polar vector of the finite C-circle with this center and radius."""
    z0, v0 = complex(center.z), float(center.v)
    return np.array([complex(radius ** 2 - abs(z0) ** 2, v0) / 2.0, z0, 1.0], dtype=complex)


def _point(lift) -> HeisenbergPoint:
    """The finite boundary point of one null lift."""
    x, y, v = heisenberg_coordinates(np.asarray(lift)[None])[0]
    return HeisenbergPoint(complex(x, y), v)


def _moved(g, p: HeisenbergPoint) -> HeisenbergPoint:
    """The boundary action of an isometry on a point."""
    return _point(g.apply(p.lift()))


def _circle_point(circle, theta: float) -> HeisenbergPoint:
    """The circle point over angle ``theta`` of the projected circle."""
    z0, v0 = complex(circle.center.z), float(circle.center.v)
    z = z0 + circle.radius * complex(math.cos(theta), math.sin(theta))
    return HeisenbergPoint(z, v0 + 2.0 * (z.conjugate() * z0).imag)


def _chord_points(seg, n: int):
    """``n`` evenly spaced points of a chord segment, one scalar point at a time."""
    points = []
    for x in np.linspace(seg.x_lo, seg.x_hi, n):
        z = seg.point + float(x) * seg.direction
        points.append(HeisenbergPoint(z, seg.plane.height_at(z)))
    return points


def _incidence(circle, p: HeisenbergPoint) -> float:
    """How far a point is from satisfying both circle point conditions."""
    z0 = complex(circle.center.z)
    r1 = abs(abs(complex(p.z) - z0) - circle.radius)
    r2 = abs(float(p.v) - float(circle.center.v) - 2.0 * (complex(p.z).conjugate() * z0).imag)
    return max(r1, r2)


@given(coords, coords, coords)
@settings(max_examples=50)
def test_lift_roundtrip(x, y, v):
    p = HeisenbergPoint(complex(x, y), v)
    lift = p.lift()
    # lifts are null
    assert abs(complex(hermitian_product(lift, lift))) < 1e-9 * (1 + x * x + y * y) ** 2
    q = _point(lift)
    assert q.z == pytest.approx(p.z, abs=1e-12)
    assert q.v == pytest.approx(p.v, abs=1e-12)


def test_heisenberg_coordinates_accept_any_scale_and_infinity():
    # each row at its own scale; a lift at infinity reads (0, 0, 0), the
    # coordinates a HeisenbergPoint at infinity carries; a zero lift is refused
    p = HeisenbergPoint(1.5 - 0.5j, 2.0)
    rows = heisenberg_coordinates(np.stack([3.7j * p.lift(), p.lift(),
                                            HeisenbergPoint(at_infinity=True).lift(),
                                            np.array([2.0, 1.0, 1e-13], dtype=complex)]))
    assert rows[0] == pytest.approx([1.5, -0.5, 2.0]) and rows[1] == pytest.approx(rows[0])
    assert rows[2:].tolist() == [[0.0, 0.0, 0.0]] * 2
    want = HeisenbergPoint(at_infinity=True)
    assert [want.z.real, want.z.imag, want.v] == [0.0, 0.0, 0.0]
    with pytest.raises(GeometryError):
        heisenberg_coordinates(np.stack([p.lift(), np.zeros(3, dtype=complex)]))


@given(coords, coords, coords, st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=40)
def test_heisenberg_coordinates_match_one_lift_at_a_time(x, y, v, scale):
    # the rows round as the scalar recovery w = lift / lift[2] rounds them
    lifts = np.stack([HeisenbergPoint(complex(x, y), v).lift() * scale,
                      HeisenbergPoint(complex(y, v), x).lift() * 1j])
    rows = heisenberg_coordinates(lifts)
    for lift, row in zip(lifts, rows):
        w = lift / lift[2]
        assert row.tolist() == [w[1].real, w[1].imag, float(2.0 * w[0].imag)]


def test_translation_realizes_group_law():
    w, s = 0.7 - 0.3j, 1.1
    g = translation_element(w, s)
    p = HeisenbergPoint(0.2 + 0.5j, -0.4)
    moved = _moved(g, p)
    # (w, s) * (z, v) = (w + z, s + v + 2 Im(w conj(z)))
    z = complex(p.z)
    expected = HeisenbergPoint(w + z, s + p.v + 2.0 * (w * z.conjugate()).imag)
    assert moved.z == pytest.approx(expected.z, abs=1e-12)
    assert moved.v == pytest.approx(expected.v, abs=1e-12)


def test_dilation_and_rotation_actions():
    p = HeisenbergPoint(1.0 + 1.0j, 0.8)
    d = _moved(dilation_element(2.0), p)
    assert d.z == pytest.approx(2.0 * p.z) and d.v == pytest.approx(4.0 * p.v)
    # rotation (z, v) -> (e^{i phi} z, v) about the vertical axis
    rotation = GroupElement(np.diag([1.0, np.exp(1j * math.pi / 2), 1.0]).astype(complex))
    r = _moved(rotation, p)
    assert r.z == pytest.approx(1j * p.z) and r.v == pytest.approx(p.v)
    with pytest.raises(GeometryError):
        dilation_element(-1.0)


@given(coords, coords, coords, st.floats(min_value=0.1, max_value=8.0))
@settings(max_examples=50)
def test_polar_center_radius_roundtrip(x, y, v, r):
    center = HeisenbergPoint(complex(x, y), v)
    circle = ccircle_from_polar(_polar(center, r))
    assert not circle.vertical
    assert complex(circle.center.z) == pytest.approx(center.z, abs=1e-9)
    assert float(circle.center.v) == pytest.approx(center.v, abs=1e-9)
    assert circle.radius == pytest.approx(r, abs=1e-9)


@given(st.floats(min_value=-math.pi, max_value=math.pi))
@settings(max_examples=50)
def test_circle_points_lie_on_circle_and_contact_plane(theta):
    circle = ccircle_from_polar(_polar(HeisenbergPoint(0.4 - 0.2j, 0.3), 1.7))
    p = _circle_point(circle, theta)
    assert _incidence(circle, p) < 1e-9
    # the contact plane at the center contains every point of the circle
    assert abs(p.v - circle.contact_plane().height_at(p.z)) < 1e-9
    dz = complex(p.z) - complex(circle.center.z)
    assert math.atan2(dz.imag, dz.real) == pytest.approx(theta, abs=1e-9)


def test_vertical_circle_has_no_chart():
    vertical = ccircle_from_polar(np.array([0.5, 1.0, 0.0], dtype=complex))
    assert vertical.vertical
    with pytest.raises(GeometryError):
        vertical.contact_plane()
    with pytest.raises(GeometryError):
        AffineDisk(vertical)


def test_isometries_map_circles_to_circles():
    circle = ccircle_from_polar(_polar(HeisenbergPoint(1.0 + 0j, 0.0), 0.9))
    g = translation_element(0.3 + 0.4j, -0.2)
    # the image circle is the one of the transported polar vector
    moved = ccircle_from_polar(g.apply(circle.polar))
    for theta in (0.0, 1.0, 2.5):
        p = _moved(g, _circle_point(circle, theta))
        assert _incidence(moved, p) < 1e-8


def test_chord_segment_against_closed_form():
    # two crown disks that genuinely share a chord
    t = 0.41
    d1 = AffineDisk(ccircle_from_polar(crown.alpha1_polar(t)))
    d2 = AffineDisk(ccircle_from_polar(crown.alpha2_polar(t)))
    seg = disk_intersection_segment(d1, d2)
    assert seg is not None and not seg.x_hi - seg.x_lo < 1e-14
    lo, hi = crown._chord_bounds(coefficients(t))
    got = sorted(p.z.real for p in _chord_points(seg, 2))
    assert got[0] == pytest.approx(lo, abs=1e-9)
    assert got[1] == pytest.approx(hi, abs=1e-9)
    # the carrier line is the closed-form chord line
    k1, k2 = crown._chord_line(coefficients(t))
    for p in _chord_points(seg, 9):
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
        want = np.stack([p.lift() for p in _chord_points(seg, n)])
        assert np.array_equal(seg.sample_lifts(n), want)


def test_disjoint_disks_share_no_segment():
    d1 = AffineDisk(ccircle_from_polar(_polar(HeisenbergPoint(0j, 0.0), 1.0)))
    d2 = AffineDisk(ccircle_from_polar(_polar(HeisenbergPoint(5.0 + 0j, 0.0), 1.0)))
    assert disk_intersection_segment(d1, d2) is None


def test_parallel_contact_planes_raise():
    d1 = AffineDisk(ccircle_from_polar(_polar(HeisenbergPoint(0j, 0.0), 1.0)))
    d2 = AffineDisk(ccircle_from_polar(_polar(HeisenbergPoint(0j, 1.0), 2.0)))
    with pytest.raises(GeometryError):
        disk_intersection_segment(d1, d2)
