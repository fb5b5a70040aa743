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


def translation_element(w, s) -> GroupElement:
    """The isometry acting on the boundary as left translation by ``(w, s)``.

    Of a complex ``w`` and a real ``s``, or of equal-length arrays of them,
    answered with the ``(n, 3, 3)`` stack of the translations.  Each entry
    rounds as Python's complex arithmetic rounds it for one translation:
    ``|w|^2`` is ``pow`` of ``hypot``, and the corner ``complex(-|w|^2, s) / 2``
    is ``((re + s * 0) / 2, (s - re * 0) / 2)``, as Python divides a complex
    by a float.
    """
    w = np.asarray(w, dtype=complex)
    s = np.asarray(s, dtype=float)
    m = np.zeros(w.shape + (3, 3), dtype=complex)
    m[..., 0, 0] = m[..., 1, 1] = m[..., 2, 2] = 1.0
    m[..., 0, 1] = -np.conj(w)
    re = -np.float_power(np.hypot(w.real, w.imag), 2.0)
    m[..., 0, 2].real = (re + s * 0.0) / 2.0
    m[..., 0, 2].imag = (s - re * 0.0) / 2.0
    m[..., 1, 2] = w
    return GroupElement(m)


def dilation_element(lam) -> GroupElement:
    """Heisenberg dilation ``(z, v) -> (lam z, lam^2 v)``, ``lam > 0``; of a
    float, or of an array of them, answered with the stack of the dilations."""
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam > 0):
        raise GeometryError("dilation factor must be positive")
    m = np.zeros(lam.shape + (3, 3), dtype=complex)
    m[..., 0, 0] = lam
    m[..., 1, 1] = 1.0
    m[..., 2, 2] = 1.0 / lam
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


def ccircle_from_polar(c):
    """Decode the polar-vector template into circle data.

    A positive vector with last coordinate ``z3`` describes, after dividing
    by ``z3``, the finite circle with center ``(c2, 2 Im(c1))`` and radius
    ``R^2 = 2 Re(c1) + |c2|^2``; when the last coordinate (essentially)
    vanishes the circle is the vertical line through ``-conj(c1)/conj(c2)``.

    ``c`` is one polar vector, answered with one circle, or an ``(n, 3)``
    stack, answered with a list of circles, decoded as one stack; any row
    that one vector would refuse refuses the stack.  ``|c2|^2`` is the
    square, by ``pow``, of ``hypot`` of the parts, as Python's
    ``abs(c2) ** 2`` is.
    """
    data = np.asarray(c, dtype=complex)
    rows = data.reshape(-1, 3)
    if any(kind is not NormType.POSITIVE for kind in norm_type(rows)):
        raise GeometryError("polar vector of a C-circle must be positive type")
    scale = np.max(np.abs(rows), axis=1)
    vertical = np.abs(rows[:, 2]) < 1e-12 * scale
    if np.any(vertical & (np.abs(rows[:, 1]) < 1e-12 * scale)):
        raise GeometryError("degenerate polar vector")
    w = np.divide(rows, rows[:, 2:], out=np.zeros_like(rows), where=~vertical[:, None])
    z0 = w[:, 1]
    r2 = 2.0 * w[:, 0].real + np.float_power(np.hypot(z0.real, z0.imag), 2.0)
    if np.any(~vertical & (r2 <= 0.0)):
        raise GeometryError(f"polar vector encodes no real circle (R^2 = {np.min(r2):.3e})")
    circles = [CCircle(row, None, math.inf, vertical=True) if flat else
               CCircle(row, HeisenbergPoint(z, 2.0 * v), math.sqrt(r))
               for row, flat, z, v, r in zip(rows, vertical.tolist(), z0.tolist(),
                                             w[:, 0].imag.tolist(), r2.tolist())]
    return circles[0] if data.ndim == 1 else circles


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
        """(n, 3) standard lifts of ``n`` evenly spaced points of the segment:
        the one-segment stack of :func:`chord_sample_lifts`."""
        return chord_sample_lifts([self], n)[0]


def chord_sample_lifts(segments, n: int) -> np.ndarray:
    """``(m, n, 3)`` standard lifts of ``n`` evenly spaced points of each of
    ``m`` segments, all lifted as one stack.

    Each row equals :meth:`HeisenbergPoint.lift` of its point, at height
    ``plane.height_at(z)``, bit for bit: ``|z|^2`` is the square, by
    ``pow``, of ``hypot`` of the parts, as Python's ``abs(z) ** 2`` is
    there; ``np.abs`` and ``** 2`` on arrays round differently.
    """
    if n < 2:
        raise GeometryError("need at least two samples")
    point, direction, x_lo, x_hi, const, cx, cy = (np.array(column) for column in zip(*(
        (seg.point, seg.direction, seg.x_lo, seg.x_hi, seg.plane.coeff_const,
         seg.plane.coeff_x, seg.plane.coeff_y) for seg in segments)))
    z = point[:, None] + np.linspace(x_lo, x_hi, n, axis=-1) * direction[:, None]
    v = -(const[:, None] + cy[:, None] * z.imag + cx[:, None] * z.real)
    lifts = np.empty(z.shape + (3,), dtype=complex)
    lifts[..., 0].real = -np.float_power(np.hypot(z.real, z.imag), 2.0) / 2.0
    lifts[..., 0].imag = v / 2.0
    lifts[..., 1] = z
    lifts[..., 2] = 1.0
    return lifts


#: clipped intervals that miss each other by at most this much are tangent
_TANGENT_TOL = 1e-12


def _chord_intervals(point: np.ndarray, direction: np.ndarray, center: np.ndarray,
                     radius: np.ndarray):
    """Parameter intervals where ``point + x direction`` is inside the circles,
    row by row; NaN where the line misses its circle.

    Every step is the one Python's complex and float arithmetic takes for
    one row (``abs`` is ``hypot``, ``** 2`` is ``pow``), so each row rounds
    as a lone line and circle would.
    """
    p = point - center
    a = np.float_power(np.hypot(direction.real, direction.imag), 2.0)
    b = 2.0 * (p.real * direction.real - p.imag * -direction.imag)
    c = np.float_power(np.hypot(p.real, p.imag), 2.0) - np.float_power(radius, 2.0)
    disc = b * b - 4.0 * a * c
    root = np.sqrt(np.where(disc < 0.0, np.nan, disc))
    return (-b - root) / (2.0 * a), (-b + root) / (2.0 * a)


def disk_intersection_segment(d1, d2):
    """Clip the line common to two contact planes by both disks.

    Returns the segment of the plane-intersection line lying inside both
    projected circles, or ``None`` when the clipped intervals miss each
    other; parallel contact planes raise ``GeometryError``.  Tangential
    contact (a miss within ``_TANGENT_TOL``) collapses to a zero-length
    segment rather than ``None`` so sphere-containment tests can treat it
    uniformly.

    ``d1`` and ``d2`` are two disks, answered as above, or two equal-length
    sequences of disks, answered with a list of the pairs' segments, each
    ``None`` where there is none, and the boolean array of the pairs whose
    planes are parallel (their entries are ``None``).  All pairs are clipped
    as one stack; a single pair is the one-row stack.
    """
    one = isinstance(d1, AffineDisk)
    firsts, seconds = ([d1], [d2]) if one else (list(d1), list(d2))
    # each distinct disk's plane coefficients, centre and radius, once
    disks = {id(d): d for d in firsts + seconds}
    where = {key: k for k, key in enumerate(disks)}
    planes = [d.plane for d in disks.values()]
    coeff = np.array([(p.coeff_x, p.coeff_y, p.coeff_const) for p in planes])
    center = np.array([complex(d.circle.center.z) for d in disks.values()])
    radius = np.array([d.circle.radius for d in disks.values()])
    i1 = np.array([where[id(d)] for d in firsts], dtype=int)
    i2 = np.array([where[id(d)] for d in seconds], dtype=int)
    # Subtracting the plane equations eliminates Z and leaves a line in the
    # z-plane: (cx1-cx2) X + (cy1-cy2) Y + (cc1-cc2) = 0.
    ax, ay, ac = (coeff[i1] - coeff[i2]).T
    # math.hypot, which np.hypot does not match bit for bit
    nrm = np.fromiter(map(math.hypot, ax.tolist(), ay.tolist()), float, len(ax))
    parallel = nrm < 1e-13
    nrm[parallel] = np.nan
    # Point on the line nearest the origin, plus the unit direction.
    nrm2 = np.float_power(nrm, 2.0)
    base = _complex(-ac * ax / nrm2, -ac * ay / nrm2)
    direction = _complex(-ay / nrm, ax / nrm)
    # both circles of every pair clipped as one stack, the first circles' rows first
    m, both = len(i1), np.concatenate([i1, i2])
    (lo1, lo2), (hi1, hi2) = ((end[:m], end[m:]) for end in _chord_intervals(
        np.concatenate([base, base]), np.concatenate([direction, direction]),
        center[both], radius[both]))
    lo = np.maximum(lo1, lo2)
    hi = np.minimum(hi1, hi2)
    # a line that misses a circle, or a miss wider than the tolerance, has no segment
    found = ~(hi < lo - _TANGENT_TOL) & ~np.isnan(lo1 + lo2)
    mid = (hi + lo) / 2.0
    tangent = hi < lo
    lo = np.where(tangent, mid, lo)
    hi = np.where(tangent, mid, hi)
    segs = [ChordSegment(complex(base[i]), complex(direction[i]), float(lo[i]), float(hi[i]),
                         planes[i1[i]]) if found[i] else None for i in range(len(firsts))]
    if not one:
        return segs, parallel
    if parallel[0]:
        raise GeometryError("contact planes are parallel; no transverse line")
    return segs[0]


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Complex array of the given parts, each placed as it is."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out
