"""Boundary geometry of the Siegel model in Heisenberg coordinates.

The ideal boundary minus one point is the Heisenberg group: pairs ``(z, v)``
with ``z`` complex and ``v`` real, multiplied by

    (w, s) * (z, v) = (w + z, s + v + 2 Im(w conj(z))).

Finite C-circles project to Euclidean circles in the z-plane and satisfy a
twisted height equation; each is encoded by a positive polar vector.  The
affine disk spanned by a finite C-circle lives in the contact plane at its
center, and the cutting-disk certificates reduce to clipping chords of such
disks against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    GeometryError,
    GroupElement,
    NormType,
    norm_type,
)


@dataclass(frozen=True)
class HeisenbergPoint:
    """A boundary point ``[z, v]``, or the distinguished point at infinity."""

    z: complex = 0j
    v: float = 0.0
    at_infinity: bool = False

    @staticmethod
    def infinity() -> "HeisenbergPoint":
        return HeisenbergPoint(0j, 0.0, True)

    def lift(self) -> np.ndarray:
        """Standard null lift (zero horospherical height)."""
        if self.at_infinity:
            return np.array([1.0, 0.0, 0.0], dtype=complex)
        z = complex(self.z)
        first = complex(-(abs(z) ** 2), self.v) / 2.0
        return np.array([first, z, 1.0], dtype=complex)

    @staticmethod
    def from_lift(vec) -> "HeisenbergPoint":
        """Recover ``[z, v]`` from any null lift (projectively)."""
        data = np.asarray(vec, dtype=complex)
        scale = float(np.max(np.abs(data)))
        if scale == 0.0:
            raise GeometryError("zero vector is not a lift")
        if abs(data[2]) < 1e-12 * scale:
            return HeisenbergPoint.infinity()
        w = data / data[2]
        return HeisenbergPoint(complex(w[1]), float(2.0 * w[0].imag))

    def __repr__(self):
        if self.at_infinity:
            return "HeisenbergPoint(inf)"
        return f"HeisenbergPoint(z={self.z:.6g}, v={self.v:.6g})"


def heisenberg_multiply(p: HeisenbergPoint, q: HeisenbergPoint) -> HeisenbergPoint:
    if p.at_infinity or q.at_infinity:
        raise GeometryError("group law is for finite points only")
    w, s = complex(p.z), float(p.v)
    z, v = complex(q.z), float(q.v)
    return HeisenbergPoint(w + z, s + v + 2.0 * (w * z.conjugate()).imag)


def heisenberg_inverse(p: HeisenbergPoint) -> HeisenbergPoint:
    if p.at_infinity:
        raise GeometryError("group law is for finite points only")
    return HeisenbergPoint(-p.z, -p.v)


def translation_element(w: complex, s: float) -> GroupElement:
    """The isometry acting on the boundary as left translation by ``(w, s)``."""
    w = complex(w)
    m = np.array(
        [
            [1.0, -w.conjugate(), complex(-abs(w) ** 2, s) / 2.0],
            [0.0, 1.0, w],
            [0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )
    return GroupElement(m)


def dilation_element(lam: float) -> GroupElement:
    """Heisenberg dilation ``(z, v) -> (lam z, lam^2 v)``, ``lam > 0``."""
    if not lam > 0:
        raise GeometryError("dilation factor must be positive")
    m = np.diag([lam, 1.0, 1.0 / lam]).astype(complex)
    return GroupElement(m)


def rotation_element(phi: float) -> GroupElement:
    """Rotation ``(z, v) -> (e^{i phi} z, v)`` about the vertical axis."""
    m = np.diag([1.0, np.exp(1j * phi), 1.0]).astype(complex)
    return GroupElement(m)


@dataclass(frozen=True, eq=False)
class CCircle:
    """A C-circle: a finite one (center + radius) or a vertical line.

    ``polar`` is the positive vector the circle was derived from.  Finite
    circles satisfy both point conditions |z - z0| = R and
    v = v0 + 2 Im(conj(z) z0); vertical circles are lines {z = z_axis}.
    """

    polar: np.ndarray
    center: Optional[HeisenbergPoint]
    radius: float
    vertical: bool = False
    z_axis: complex = 0j

    @property
    def finite(self) -> bool:
        return not self.vertical

    def point_at(self, theta: float) -> HeisenbergPoint:
        """The circle point over angle ``theta`` of the projected circle."""
        if self.vertical:
            raise GeometryError("a vertical C-circle has no angle chart")
        z0, v0 = complex(self.center.z), float(self.center.v)
        z = z0 + self.radius * complex(math.cos(theta), math.sin(theta))
        v = v0 + 2.0 * (z.conjugate() * z0).imag
        return HeisenbergPoint(z, v)

    def angle_of(self, p: HeisenbergPoint, tol: float = 1e-7) -> float:
        """Angle of a point known to lie on the circle, in (-pi, pi]."""
        if self.vertical:
            raise GeometryError("a vertical C-circle has no angle chart")
        dz = complex(p.z) - complex(self.center.z)
        r = abs(dz)
        if abs(r - self.radius) > tol * max(1.0, self.radius):
            raise GeometryError("point is not on the circle's projected circle")
        return math.atan2(dz.imag, dz.real)

    def contact_plane(self) -> "ContactPlane":
        if self.vertical:
            raise GeometryError("vertical C-circles span no affine disk")
        return contact_plane_at(self.center)


def ccircle_from_polar(c) -> CCircle:
    """Decode the polar-vector template into circle data.

    A positive vector with last coordinate ``z3`` describes, after dividing
    by ``z3``, the finite circle with center ``(c2, 2 Im(c1))`` and radius
    ``R^2 = 2 Re(c1) + |c2|^2``; when the last coordinate (essentially)
    vanishes the circle is the vertical line through ``-conj(c1)/conj(c2)``.
    """
    data = np.asarray(c, dtype=complex)
    if norm_type(data) is not NormType.POSITIVE:
        raise GeometryError("polar vector of a C-circle must be positive type")
    scale = float(np.max(np.abs(data)))
    if abs(data[2]) < 1e-12 * scale:
        if abs(data[1]) < 1e-12 * scale:
            raise GeometryError("degenerate polar vector")
        z_axis = -data[0].conjugate() / data[1].conjugate()
        return CCircle(data, None, math.inf, vertical=True, z_axis=complex(z_axis))
    w = data / data[2]
    z0 = complex(w[1])
    v0 = 2.0 * float(w[0].imag)
    r2 = 2.0 * float(w[0].real) + abs(z0) ** 2
    if r2 <= 0.0:
        raise GeometryError(f"polar vector encodes no real circle (R^2 = {r2:.3e})")
    return CCircle(data, HeisenbergPoint(z0, v0), math.sqrt(r2))


def polar_from_center_radius(center: HeisenbergPoint, radius: float) -> np.ndarray:
    if center.at_infinity:
        raise GeometryError("center must be finite")
    if not radius > 0:
        raise GeometryError("radius must be positive")
    z0, v0 = complex(center.z), float(center.v)
    first = complex(radius ** 2 - abs(z0) ** 2, v0) / 2.0
    return np.array([first, z0, 1.0], dtype=complex)


@dataclass(frozen=True)
class ContactPlane:
    """The affine plane at a point M containing all C-circles centered there.

    With M = (a + i b, c) the plane is the zero set of
    ``P(X, Y, Z) = Z - c + 2 a Y - 2 b X`` over Heisenberg coordinates
    ``(X + i Y, Z)``.
    """

    base: HeisenbergPoint

    @property
    def coeff_x(self) -> float:
        return -2.0 * complex(self.base.z).imag

    @property
    def coeff_y(self) -> float:
        return 2.0 * complex(self.base.z).real

    @property
    def coeff_const(self) -> float:
        return -float(self.base.v)

    def evaluate(self, p: HeisenbergPoint) -> float:
        if p.at_infinity:
            raise GeometryError("contact planes do not reach infinity")
        z = complex(p.z)
        return float(p.v) + self.coeff_const + self.coeff_y * z.imag + self.coeff_x * z.real

    def height_at(self, z: complex) -> float:
        """The Z making ``(z, Z)`` lie on the plane."""
        z = complex(z)
        return -(self.coeff_const + self.coeff_y * z.imag + self.coeff_x * z.real)


def contact_plane_at(m: HeisenbergPoint) -> ContactPlane:
    if m.at_infinity:
        raise GeometryError("contact planes are based at finite points")
    return ContactPlane(m)


@dataclass(frozen=True)
class AffineDisk:
    """The planar disk inside the contact plane bounded by a finite C-circle."""

    circle: CCircle

    def __post_init__(self):
        if self.circle.vertical:
            raise GeometryError("vertical C-circles span no affine disk")

    @property
    def plane(self) -> ContactPlane:
        return self.circle.contact_plane()

    def contains_projection(self, z: complex, pad: float = 0.0) -> bool:
        return abs(complex(z) - complex(self.circle.center.z)) <= self.circle.radius + pad

    def point_over(self, z: complex) -> HeisenbergPoint:
        """The disk point over ``z`` (must project inside the circle)."""
        if not self.contains_projection(z, pad=1e-12):
            raise GeometryError("projection outside the disk")
        return HeisenbergPoint(complex(z), self.plane.height_at(z))


@dataclass(frozen=True)
class ChordSegment:
    """A segment of the line where two contact planes meet.

    The carrier line is parametrized as ``z(x) = point + x * direction`` in
    the z-plane with the height recovered from either plane; ``x_lo <= x_hi``
    bound the part inside both disks.
    """

    point: complex
    direction: complex
    x_lo: float
    x_hi: float
    plane: ContactPlane

    @property
    def degenerate(self) -> bool:
        return self.x_hi - self.x_lo < 1e-14

    def point_at(self, x: float) -> HeisenbergPoint:
        z = self.point + x * self.direction
        return HeisenbergPoint(z, self.plane.height_at(z))

    def endpoints(self):
        return self.point_at(self.x_lo), self.point_at(self.x_hi)

    def sample(self, n: int):
        if n < 2:
            raise GeometryError("need at least two samples")
        xs = np.linspace(self.x_lo, self.x_hi, n)
        return [self.point_at(float(x)) for x in xs]

    def sample_lifts(self, n: int) -> np.ndarray:
        """(n, 3) standard lifts of ``sample(n)``, equal to theirs bit for bit.

        ``|z|^2`` is Python's ``abs(z) ** 2`` per point, as in
        :meth:`HeisenbergPoint.lift`; ``np.abs`` rounds differently.
        """
        if n < 2:
            raise GeometryError("need at least two samples")
        z = self.point + np.linspace(self.x_lo, self.x_hi, n) * self.direction
        plane = self.plane
        v = -(plane.coeff_const + plane.coeff_y * z.imag + plane.coeff_x * z.real)
        lifts = np.empty((n, 3), dtype=complex)
        lifts[:, 0].real = -np.fromiter((abs(w) ** 2 for w in z.tolist()), float, n) / 2.0
        lifts[:, 0].imag = v / 2.0
        lifts[:, 1] = z
        lifts[:, 2] = 1.0
        return lifts


def _chord_interval(point: complex, direction: complex, center: complex, radius: float):
    """Parameter interval where ``point + x direction`` is inside the circle."""
    d = complex(direction)
    p = complex(point) - complex(center)
    a = abs(d) ** 2
    b = 2.0 * (p * d.conjugate()).real
    c = abs(p) ** 2 - radius ** 2
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    return ((-b - root) / (2 * a), (-b + root) / (2 * a))


def disk_intersection_segment(d1: AffineDisk, d2: AffineDisk,
                              tangent_tol: float = 1e-12) -> Optional[ChordSegment]:
    """Clip the line common to two contact planes by both disks.

    Returns the segment of the plane-intersection line lying inside both
    projected circles, or ``None`` when the clipped intervals miss each
    other.  Tangential contact collapses to a zero-length segment rather
    than ``None`` so sphere-containment tests can treat it uniformly.
    """
    p1, p2 = d1.plane, d2.plane
    # Subtracting the plane equations eliminates Z and leaves a line in the
    # z-plane: (cx1-cx2) X + (cy1-cy2) Y + (cc1-cc2) = 0.
    ax = p1.coeff_x - p2.coeff_x
    ay = p1.coeff_y - p2.coeff_y
    ac = p1.coeff_const - p2.coeff_const
    nrm = math.hypot(ax, ay)
    if nrm < 1e-13:
        raise GeometryError("contact planes are parallel; no transverse line")
    # Point on the line nearest the origin, plus the unit direction.
    base = complex(-ac * ax / nrm ** 2, -ac * ay / nrm ** 2)
    direction = complex(-ay / nrm, ax / nrm)
    i1 = _chord_interval(base, direction, complex(d1.circle.center.z), d1.circle.radius)
    i2 = _chord_interval(base, direction, complex(d2.circle.center.z), d2.circle.radius)
    if i1 is None or i2 is None:
        return None
    lo = max(i1[0], i2[0])
    hi = min(i1[1], i2[1])
    if hi < lo - tangent_tol:
        return None
    if hi < lo:
        mid = (hi + lo) / 2.0
        lo = hi = mid
    return ChordSegment(base, direction, lo, hi, p1)


def incidence_residual(circle: CCircle, p: HeisenbergPoint) -> float:
    """How far a point is from satisfying both circle point conditions."""
    if circle.vertical:
        return abs(complex(p.z) - circle.z_axis)
    z0 = complex(circle.center.z)
    dz = complex(p.z) - z0
    r1 = abs(abs(dz) - circle.radius)
    r2 = abs(float(p.v) - float(circle.center.v) - 2.0 * (complex(p.z).conjugate() * z0).imag)
    return max(r1, r2)


def apply_to_point(g: GroupElement, p: HeisenbergPoint) -> HeisenbergPoint:
    """Push a boundary point through an isometry (boundary action)."""
    return HeisenbergPoint.from_lift(g.apply(p.lift()))


def apply_to_circle(g: GroupElement, circle: CCircle) -> CCircle:
    """Image of a C-circle: transport the polar vector."""
    return ccircle_from_polar(g.apply(circle.polar))
