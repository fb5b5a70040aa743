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

    def lift(self) -> np.ndarray:
        """Standard null lift (zero horospherical height)."""
        if self.at_infinity:
            return np.array([1.0, 0.0, 0.0], dtype=complex)
        z = complex(self.z)
        first = complex(-(abs(z) ** 2), self.v) / 2.0
        return np.array([first, z, 1.0], dtype=complex)

    def __repr__(self):
        if self.at_infinity:
            return "HeisenbergPoint(inf)"
        return f"HeisenbergPoint(z={self.z:.6g}, v={self.v:.6g})"


def heisenberg_coordinates(lifts) -> np.ndarray:
    """Rows ``(x, y, v)`` of the boundary points ``[x + iy, v]`` of an
    ``(n, 3)`` stack of null lifts, each at any scale (projectively).

    A lift whose last coordinate is below ``1e-12`` of its largest one is
    the point at infinity, and gets the coordinates ``(0, 0, 0)`` that a
    :class:`HeisenbergPoint` at infinity carries; a zero lift is refused.
    """
    data = np.asarray(lifts, dtype=complex)
    scale = np.max(np.abs(data), axis=1)
    if np.any(scale == 0.0):
        raise GeometryError("zero vector is not a lift")
    finite = ~(np.hypot(data[:, 2].real, data[:, 2].imag) < 1e-12 * scale)
    w = np.divide(data, data[:, 2:], out=np.zeros_like(data), where=finite[:, None])
    return np.stack([w[:, 1].real, w[:, 1].imag, 2.0 * w[:, 0].imag], axis=1)


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


@dataclass(frozen=True, eq=False)
class CCircle:
    """A C-circle: a finite one (center + radius) or a vertical line.

    ``polar`` is the positive vector the circle was derived from.  Finite
    circles satisfy both point conditions |z - z0| = R and
    v = v0 + 2 Im(conj(z) z0); vertical circles are vertical lines.
    """

    polar: np.ndarray
    center: Optional[HeisenbergPoint]
    radius: float
    vertical: bool = False

    def contact_plane(self) -> "ContactPlane":
        if self.vertical:
            raise GeometryError("vertical C-circles span no affine disk")
        return ContactPlane(self.center)


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
        return CCircle(data, None, math.inf, vertical=True)
    w = data / data[2]
    z0 = complex(w[1])
    v0 = 2.0 * float(w[0].imag)
    r2 = 2.0 * float(w[0].real) + abs(z0) ** 2
    if r2 <= 0.0:
        raise GeometryError(f"polar vector encodes no real circle (R^2 = {r2:.3e})")
    return CCircle(data, HeisenbergPoint(z0, v0), math.sqrt(r2))


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

    def height_at(self, z: complex) -> float:
        """The Z making ``(z, Z)`` lie on the plane."""
        z = complex(z)
        return -(self.coeff_const + self.coeff_y * z.imag + self.coeff_x * z.real)


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

    def sample_lifts(self, n: int) -> np.ndarray:
        """(n, 3) standard lifts of ``n`` evenly spaced points of the segment.

        Each row equals :meth:`HeisenbergPoint.lift` of its point, at height
        ``plane.height_at(z)``, bit for bit: ``|z|^2`` is Python's
        ``abs(z) ** 2`` per point, as there; ``np.abs`` rounds differently.
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


#: clipped intervals that miss each other by at most this much are tangent
_TANGENT_TOL = 1e-12


def disk_intersection_segment(d1: AffineDisk, d2: AffineDisk) -> Optional[ChordSegment]:
    """Clip the line common to two contact planes by both disks.

    Returns the segment of the plane-intersection line lying inside both
    projected circles, or ``None`` when the clipped intervals miss each
    other.  Tangential contact (a miss within ``_TANGENT_TOL``) collapses to
    a zero-length segment rather than ``None`` so sphere-containment tests
    can treat it uniformly.
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
    if hi < lo - _TANGENT_TOL:
        return None
    if hi < lo:
        mid = (hi + lo) / 2.0
        lo = hi = mid
    return ChordSegment(base, direction, lo, hi, p1)

