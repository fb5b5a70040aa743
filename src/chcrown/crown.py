"""Crown arcs: axis arcs of the conjugate loxodromics and their hat arcs.

Every arc lives on the boundary C-circle of a loxodromic axis.  Once the
circle is normalized to the standard planar circle of radius sqrt(2(8t-3))
at the origin, each spinal sphere cuts the unit-circle chart along a
straight line ``k0 + k1 x + k2 y = 0`` (the side function of a lift that is
affine over the chart stays affine on it), so sphere crossings, hosts, and
clearance margins reduce to line/circle arithmetic.

The crown itself: four alpha arcs (conjugates of the axis of g1 under the
order-4 rotation g2) and four beta arcs (conjugates of the axis of
g2^-1 g3).  Hat arcs are the unique sub-segments outside all eight spinal
spheres; their cutting disks tile the boundary of the crown solid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core import (
    EPS_ALG,
    GeometryError,
    GroupElement,
    _abs2,
    _apply,
    _fixed_row,
    box_product,
    fixed_points_boundary,
    hermitian_product,
    matrix_phase_distance,
)
from .dirichlet import (
    _Q0_NORM,
    DirichletConfig,
    SpinalSphere,
    canonical_index,
    ring_bounds,
    ring_max,
    trig_basis,
)
from .heisenberg import (
    AffineDisk,
    CCircle,
    ChordSegment,
    ccircle_from_polar,
    chord_sample_lifts,
    dilation_element,
    disk_intersection_segment,
    translation_element,
)
from .triangle import (
    PARAM_MAX,
    PARAM_MIN,
    Q0,
    Coefficients,
    _coefficient_arrays,
    _generator_stacks,
    coefficients,
    validate_param,
)

ARC_NAMES = ("alpha1", "alpha2", "alpha3", "alpha4", "beta1", "beta2", "beta3", "beta4")


# ---------------------------------------------------------------------------
# closed-form polar lifts


def _vectors(x0, y0, x1, y1, x2, y2) -> np.ndarray:
    """Vectors ``[x0 + i y0, x1 + i y1, x2 + i y2]`` on the last axis.

    The parts are floats or float arrays, and each is placed, never summed,
    so a closed form evaluated on floats keeps the bits of
    ``complex(x, y) / d`` when it divides each part by ``d`` itself.
    """
    out = np.empty(np.broadcast(x0, y0, x1, y1, x2, y2).shape + (3,), dtype=complex)
    for k, (x, y) in enumerate(((x0, y0), (x1, y1), (x2, y2))):
        out.real[..., k] = x
        out.imag[..., k] = y
    return out


def _alpha1_polar(c: Coefficients) -> np.ndarray:
    f = math.sqrt(2.0) * c.a
    d = 1.0 - 2.0 * c.t
    return _vectors(-1.0, 0.0, f * c.t / d, -(f * c.b) / d, 1.0, 0.0)


def alpha1_polar(t: float) -> np.ndarray:
    """Axis polar of g1, lifted with last coordinate 1."""
    return _alpha1_polar(coefficients(t))


def alpha2_polar(t: float) -> np.ndarray:
    c = coefficients(t)
    t = c.t
    den = 2.0 * t * c.a + 4.0 * t - 1.0
    return np.array([complex(8.0 * t - 3.0, -2.0 * c.a * c.b) / den, 0.0, 1.0], dtype=complex)


def _alpha4_polar(c: Coefficients) -> np.ndarray:
    den = 4.0 * c.t - 1.0 - 2.0 * c.t * c.a
    return _vectors((8.0 * c.t - 3.0) / den, 2.0 * c.a * c.b / den, 0.0, 0.0, 1.0, 0.0)


def alpha4_polar(t: float) -> np.ndarray:
    return _alpha4_polar(coefficients(t))


def beta_polar_scaled(t: float) -> np.ndarray:
    """Axis polar of g1 g2^-1 (the circle beta_3) at the reference scale.

    This is the lift whose self-product is (16t-6)/(8(1-2t)); linking
    values against ``alpha1_polar`` then take rational closed forms.
    """
    c = coefficients(t)
    t = c.t
    s4 = 2.0 * math.sqrt(1.0 - 2.0 * t)
    return np.array(
        [
            complex(-(t - c.a - 1.0), -c.b) / (2.0 * s4),
            math.sqrt(2.0) * c.a / (2.0 * s4),
            complex(t + c.a - 1.0, c.b) / (2.0 * s4),
        ],
        dtype=complex,
    )


def linking_value(v: np.ndarray, w: np.ndarray):
    """|<v,w>|^2 - <v,v><w,w>; positive iff the two C-circles are unlinked.

    Of two lifts, answered with a float, or row by row of two ``(n, 3)``
    stacks, answered with an array; each row rounds as a lone pair does.
    Scales with |c|^2 in either lift, so only the sign is scale-free; the
    closed-form regressions pin specific lifts.
    """
    vw, vv, ww = hermitian_product(np.stack([v, v, w]), np.stack([w, v, w]))
    out = np.float_power(np.hypot(vw.real, vw.imag), 2.0) - vv.real * ww.real
    return float(out) if np.ndim(out) == 0 else out


def linking_alpha_beta_closed(t: float) -> float:
    t = validate_param(t)
    return 2.0 * (1.0 - 3.0 * t) / (2.0 * t - 1.0)


def linking_alpha_alpha_closed(t: float) -> float:
    t = validate_param(t)
    return -2.0 * (15.0 * t * t - 11.0 * t + 2.0) / (2.0 * t - 1.0) ** 2


def crown_circle_polars(config: DirichletConfig,
                        beta: Tuple[np.ndarray, np.ndarray]) -> Dict[str, np.ndarray]:
    """Polar lifts of the eight crown circles, g2-orbits of alpha1/beta1.

    ``beta`` is the fixed-point pair of the beta base map ``g2^-1 g3``.  The
    two base polars move as one two-row stack.
    """
    base = np.stack([alpha1_polar(config.gens.t), box_product(*beta)])
    orbit = _g2_orbit(config, np.tile(base, (4, 1)), np.repeat(np.arange(4), 2))
    return {f"{family}{i + 1}": orbit[2 * i + f]
            for i in range(4) for f, family in enumerate(("alpha", "beta"))}


def _g2_orbit(config: DirichletConfig, rows: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Row ``i`` of an ``(n, 3)`` stack moved by ``g2^powers[i]``, ``0 <= powers < 4``.

    All rows that still move are carried together, one matrix-vector
    product per row, so each rounds as one vector carried alone does.
    """
    g2 = config.gens.g2.matrix
    out = np.array(rows, dtype=complex)
    for p in range(1, 4):
        moving = powers >= p
        out[moving] = _apply(g2, out[moving])
    return out


@dataclass(frozen=True)
class LinkReport:
    """Linking value of two crown circles: positive iff they are unlinked."""

    first: str
    second: str
    value: float


#: the 28 pairs ``i < j`` of the crown circles, in the order of ``Scene.polars``
_CIRCLE_PAIRS = np.triu_indices(8, 1)


def linked_pair_report(scene: Scene) -> List[LinkReport]:
    """Linking sign for all 28 pairs of the scene's crown circles, one stack."""
    names = list(scene.polars)
    polars = np.stack(list(scene.polars.values()))
    first, second = _CIRCLE_PAIRS
    values = linking_value(polars[first], polars[second])
    return [LinkReport(names[i], names[j], value)
            for i, j, value in zip(first.tolist(), second.tolist(), values.tolist())]


# ---------------------------------------------------------------------------
# chart normalization


def standard_chart_lift(t: float, x, y) -> np.ndarray:
    """Lifts of the standard-circle points over chart positions (x, y).

    Floats give one ``(3,)`` lift, equal-length arrays an ``(n, 3)`` stack.
    """
    r = math.sqrt(2.0 * (8.0 * t - 3.0))
    zx, zy = r * np.asarray(x, dtype=float), r * np.asarray(y, dtype=float)
    return _vectors(-(np.hypot(zx, zy) ** 2) / 2.0, 0.0, zx, zy, 1.0, 0.0)


@dataclass(frozen=True)
class ChartedCircle:
    """A C-circle together with the move that makes it the standard one.

    ``forward`` sends the circle to the origin-centered planar circle of
    radius sqrt(2(8t-3)); the unit-circle coordinates (x, y) of the image
    are the chart.  Any spinal sphere restricts to an affine function
    ``k0 + k1 x + k2 y`` there.
    """

    t: float
    circle: CCircle
    forward: GroupElement
    backward: GroupElement

    @classmethod
    def build(cls, t: float, circles) -> "ChartedCircle":
        """The chart of one circle, or the list of charts of a sequence of
        circles, their moves built as one stack."""
        one = isinstance(circles, CCircle)
        circles = [circles] if one else list(circles)
        if any(circle.vertical for circle in circles):
            raise GeometryError("vertical circles have no planar chart")
        z0 = np.array([complex(circle.center.z) for circle in circles])
        v0 = np.array([float(circle.center.v) for circle in circles])
        lam = math.sqrt(2.0 * (8.0 * t - 3.0)) / np.array([c.radius for c in circles])
        # Heisenberg left translation by the group inverse of the center,
        # then the dilation that fixes the target radius.
        move = dilation_element(lam) @ translation_element(-z0, -v0)
        back = move.inverse()
        charts = [cls(t, circle, GroupElement(f), GroupElement(b))
                  for circle, f, b in zip(circles, move.matrix, back.matrix)]
        return charts[0] if one else charts

    def from_chart(self, x, y) -> np.ndarray:
        """Lifts of the actual boundary points over chart positions (x, y).

        Floats give one ``(3,)`` lift, equal-length arrays an ``(n, 3)`` stack.
        """
        return _from_charts(self.backward.matrix, self.t, x, y)

    def sphere_lines(self, config: DirichletConfig) -> Tuple["ChartLine", ...]:
        """The chart lines of the eight spheres, sphere ``k`` at index ``k - 1``."""
        return tuple(ChartLine(*line) for line in _chart_lines([self], config)[0].tolist())


def _to_charts(forward: np.ndarray, t: float, lifts: np.ndarray):
    """Chart positions ``(x, y)`` of lifts by one chart's ``forward`` matrix,
    or row by row by an ``(n, 3, 3)`` stack of them, one chart per lift.

    ``x + iy`` is the image's ``w_2 / w_3`` divided by the radius as Python
    divides a complex by a float: ``((re + im * 0) / r, (im - re * 0) / r)``.
    """
    img = _apply(forward, lifts)
    if np.any(np.abs(img[..., 2]) < 1e-13 * np.max(np.abs(img), axis=-1)):
        raise GeometryError("point maps to infinity; not on the chart")
    w = (img / img[..., 2:])[..., 1]
    r = math.sqrt(2.0 * (8.0 * t - 3.0))
    return (w.real + w.imag * 0.0) / r, (w.imag - w.real * 0.0) / r


def _chart_angles(forward: np.ndarray, t: float, lifts: np.ndarray) -> np.ndarray:
    """Chart angles of lifts on the chart circle, as :func:`_to_charts` takes
    them; ``math.atan2``, which ``np.arctan2`` does not match bit for bit."""
    x, y = _to_charts(forward, t, lifts)
    n = np.hypot(x, y)
    if np.any(np.abs(n - 1.0) > 1e-6):
        raise GeometryError(f"point is off the chart circle (|xy| = {np.max(n):.6f})")
    x, y = np.atleast_1d(x), np.atleast_1d(y)
    angles = np.fromiter(map(math.atan2, y.tolist(), x.tolist()), float, len(x))
    return angles.reshape(np.shape(n))


def _from_charts(backward: np.ndarray, t: float, x, y) -> np.ndarray:
    """Lifts over chart positions (x, y) by one chart's ``backward`` matrix,
    or row by row by an ``(n, 3, 3)`` stack of them, one chart per point."""
    img = _apply(backward, standard_chart_lift(t, x, y))
    return img / img[..., 2:]


def _chart_lines(charts: List[ChartedCircle], config: DirichletConfig) -> np.ndarray:
    """``(m, 8, 3)`` coefficients ``(k0, k1, k2)`` of the eight spheres' chart
    lines on each of ``m`` charts, from one stack.

    Each affine side function is read off its values at the chart points
    (1, 0), (-1, 0) and (0, 1): the three points of every chart are lifted
    as one stack, and one :meth:`DirichletConfig.side_matrix` call
    evaluates all eight spheres there.  The charts share the parameter.
    """
    backward = np.repeat(np.stack([chart.backward.matrix for chart in charts]), 3, axis=0)
    n = len(charts)
    lifts = _from_charts(backward, charts[0].t, np.tile(_PROBE_X, n), np.tile(_PROBE_Y, n))
    sides = config.side_matrix(lifts).reshape(n, 3, 8)
    f10, fm10, f01 = sides[:, 0], sides[:, 1], sides[:, 2]
    k0 = (f10 + fm10) / 2.0
    return np.stack([k0, (f10 - fm10) / 2.0, f01 - k0], axis=-1)


#: the chart points whose side values give a sphere's chart line
_PROBE_X = np.array([1.0, -1.0, 0.0])
_PROBE_Y = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class ChartLine:
    """The trace k0 + k1 x + k2 y = 0 of a sphere on a circle chart."""

    k0: float
    k1: float
    k2: float

    def circle_crossings(self) -> List[float]:
        """Angles where the line meets the unit circle (0, 1, or 2)."""
        first, second, count = _crossing_angles(*(np.array([k]) for k in (self.k0, self.k1, self.k2)))
        return [float(first[0]), float(second[0])][:int(count[0])]


def _crossing_angles(k0: np.ndarray, k1: np.ndarray, k2: np.ndarray):
    """Where the chart lines ``k0 + k1 x + k2 y = 0`` meet the unit circle,
    elementwise: two angle arrays and the number of crossings (0, 1 or 2).

    A line at distance ``c = -k0 / |(k1, k2)|`` in direction ``phi`` meets
    it at ``phi -+ acos(c)``, once where the two coincide.  ``hypot``,
    ``atan2`` and ``acos`` are Python's, which numpy's do not match bit for
    bit, and ``c`` is clamped as Python's ``max`` and ``min`` clamp it.
    """
    shape = np.shape(k0)
    k0, k1, k2 = (np.ravel(k) for k in (k0, k1, k2))
    r = np.fromiter(map(math.hypot, k1.tolist(), k2.tolist()), float, len(k0))
    with np.errstate(divide="ignore", invalid="ignore"):
        c = -k0 / r
    count = np.where((r == 0.0) | (np.abs(c) > 1.0), 0, 2)
    c = np.where(c > -1.0, c, -1.0)
    c = np.where(c < 1.0, c, 1.0)
    phi = np.fromiter(map(math.atan2, k2.tolist(), k1.tolist()), float, len(k0))
    d = np.fromiter(map(math.acos, c.tolist()), float, len(k0))
    count[(count == 2) & (d == 0.0)] = 1
    return (_wrap_angle(phi - d).reshape(shape), _wrap_angle(phi + d).reshape(shape),
            count.reshape(shape))


def _wrap_angle(theta):
    """``theta`` wrapped into ``[-pi, pi)``; a float or, elementwise, an array."""
    out = np.fmod(theta + math.pi, 2.0 * math.pi)
    return np.where(out < 0, out + 2.0 * math.pi, out) - math.pi


# ---------------------------------------------------------------------------
# crown arcs


@dataclass(frozen=True)
class CrownArc:
    """A fixed-point-to-fixed-point sub-arc of a crown circle.

    Runs from the attracting chart angle through ``sweep`` (signed) to the
    repelling one; ``angle_at`` linearly sweeps the angle, so s = 0 is
    the attracting end.
    """

    name: str
    circle: CCircle
    chart: ChartedCircle
    theta_att: float
    sweep: float

    def angle_at(self, s: float) -> float:
        return self.theta_att + s * self.sweep

    def lift_at(self, s: float) -> np.ndarray:
        th = self.angle_at(s)
        return self.chart.from_chart(math.cos(th), math.sin(th))


def _arc_params(theta, theta_att, sweep):
    """Arc parameters of angles on arcs from ``theta_att`` through ``sweep``,
    elementwise; an angle is on its arc iff its parameter is in [0, 1]."""
    delta = _wrap_angle(theta - theta_att)
    s = delta / sweep
    return np.where(s < 0.0, (delta + np.copysign(2.0 * math.pi, sweep)) / sweep, s)


def base_map(gens, family: str) -> GroupElement:
    """The map whose axis carries the family's first arc: g1 for alpha, g2^-1 g3 for beta."""
    return gens.g1 if family == "alpha" else gens.g2.inverse() @ gens.g3


def _crown_arcs(config: DirichletConfig, names: List[str],
                att: np.ndarray, rep: np.ndarray) -> List[CrownArc]:
    """The named arcs: each counterclockwise from its attracting end.

    The two fixed points sit antipodally on the chart circle, and every
    sphere's chart line is perpendicular to that diameter, so the side
    functions are exactly mirror-symmetric about it: both half-arcs relate
    to the spheres identically, and picking one is a normalization, not a
    finding.  The counterclockwise half is the one the symmetry transports
    consistently (``g2`` images match, and the carried beta hat abuts the
    alpha hat); :func:`hat_arcs` certifies it holds a single in-domain
    segment.  Row ``i`` of the ``(n, 3)`` stacks ``att`` and ``rep`` is the
    fixed-point pair of the :func:`base_map` of ``names[i]``'s family, which
    ``g2`` carries to the named arc; the pairs and their polars move as one
    stack.
    """
    for name in names:
        if name not in ARC_NAMES:
            raise GeometryError(f"unknown arc name {name!r}")
    n = len(names)
    powers = np.array([int(name[-1]) - 1 for name in names])
    moved = _g2_orbit(config, np.concatenate([att, rep, box_product(att, rep)]),
                      np.tile(powers, 3))
    t = config.gens.t
    charts = ChartedCircle.build(t, ccircle_from_polar(moved[2 * n:]))
    forward = np.stack([chart.forward.matrix for chart in charts])
    theta = _chart_angles(np.concatenate([forward, forward]), t, moved[:2 * n])
    sweep = np.mod(theta[n:] - theta[:n], 2.0 * math.pi)
    return [CrownArc(name, chart.circle, chart, a, ccw)
            for name, chart, a, ccw in zip(names, charts, theta[:n].tolist(), sweep.tolist())]


def _sphere_crossing_params(arcs: List[CrownArc], lines: np.ndarray):
    """Sorted arc parameters of on-arc sphere crossings, with sphere index, of
    each arc; ``lines[i]`` holds the eight spheres' chart line coefficients
    on ``arcs[i]``'s chart (:func:`_chart_lines`).  All crossings of all
    arcs are placed as one stack."""
    first, second, count = _crossing_angles(lines[..., 0], lines[..., 1], lines[..., 2])
    att = np.array([arc.theta_att for arc in arcs])[:, None]
    sweep = np.array([arc.sweep for arc in arcs])[:, None]
    s = _arc_params(np.stack([first, second]), att, sweep)
    on = (np.arange(2)[:, None, None] < count) & (0.0 <= s) & (s <= 1.0)
    hits = []
    for i in range(len(arcs)):
        which, k = np.nonzero(on[:, i])
        hits.append(sorted(zip(s[which, i, k].tolist(), (k + 1).tolist())))
    return hits


def _arc_lifts(arcs: List[CrownArc], which: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Lifts of the points at parameters ``s`` on the arcs ``arcs[which]``, one stack."""
    theta = (np.array([arc.theta_att for arc in arcs])[which]
             + s * np.array([arc.sweep for arc in arcs])[which])
    backward = np.stack([arc.chart.backward.matrix for arc in arcs])[which]
    return _from_charts(backward, arcs[0].chart.t, np.cos(theta), np.sin(theta))


def _in_domain_segments(arcs: List[CrownArc], config: DirichletConfig,
                        hits: List[List[Tuple[float, int]]]) -> List[List[Tuple[float, float]]]:
    """Maximal sub-intervals of each arc outside all eight spheres.

    ``hits[i]`` are ``arcs[i]``'s sphere crossings from
    ``_sphere_crossing_params``; a piece is outside when its midpoint's
    largest side value is below ``-1e-12``.  The midpoints of all pieces of
    all arcs are lifted and evaluated as one stack.
    """
    pieces = []
    for arc_hits in hits:
        cuts = [0.0] + [s for s, _ in arc_hits] + [1.0]
        pieces.append([(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi - lo >= 1e-12])
    which = np.repeat(np.arange(len(arcs)), [len(p) for p in pieces])
    mids = np.array([(lo + hi) / 2.0 for arc_pieces in pieces for lo, hi in arc_pieces])
    tops = iter(np.max(config.side_matrix(_arc_lifts(arcs, which, mids)), axis=1).tolist())
    out = []
    for arc_pieces in pieces:
        segments = [piece for piece, top in zip(arc_pieces, tops) if top < -1e-12]
        # merge adjacent segments split by a crossing that does not change sign
        merged: List[Tuple[float, float]] = []
        for seg in segments:
            if merged and abs(merged[-1][1] - seg[0]) < 1e-12:
                merged[-1] = (merged[-1][0], seg[1])
            else:
                merged.append(seg)
        out.append(merged)
    return out


@dataclass(frozen=True)
class HatArc:
    """The in-domain segment of a crown arc, with its two host spheres."""

    arc: CrownArc
    s_minus: float
    s_plus: float
    host_minus: int
    host_plus: int
    interior_margin: float

    @property
    def hosts(self) -> Tuple[int, int]:
        return self.host_minus, self.host_plus

    def endpoint_lift(self, side: str) -> np.ndarray:
        s = self.s_minus if side == "-" else self.s_plus
        return self.arc.lift_at(s)

    def endpoint_chart(self, side: str) -> Tuple[float, float]:
        th = self.arc.angle_at(self.s_minus if side == "-" else self.s_plus)
        return math.cos(th), math.sin(th)

    def sample_lifts(self, n: int) -> np.ndarray:
        """``(n, 3)`` lifts of ``n`` evenly spaced hat points, lifted as one stack."""
        theta = self.sample_angles(n)
        return self.arc.chart.from_chart(np.cos(theta), np.sin(theta))

    def sample_angles(self, n: int) -> np.ndarray:
        """Chart angles of the points of :meth:`sample_lifts`, without lifting."""
        return self.arc.angle_at(np.linspace(self.s_minus, self.s_plus, n))


def hat_arcs(arcs: List[CrownArc], config: DirichletConfig,
             hits: List[List[Tuple[float, int]]]) -> List[HatArc]:
    """Cut each arc by all spheres and keep its unique in-domain segment.

    The endpoints are sphere crossings; their spheres are the hosts.  The
    minus end is the one hosted by the odd-indexed sphere of the pair
    (canonical 2i+1 for both arc families).  ``hits[i]`` are ``arcs[i]``'s
    sphere crossings from ``_sphere_crossing_params``.  The hats' midpoints
    are evaluated as one stack.
    """
    ends = []
    for arc, segs, arc_hits in zip(arcs, _in_domain_segments(arcs, config, hits), hits):
        if len(segs) != 1:
            raise GeometryError(f"{arc.name}: expected one in-domain segment, got {len(segs)}")
        lo, hi = segs[0]
        host_of = {round(s, 12): k for s, k in arc_hits}
        try:
            ends.append((lo, hi, host_of[round(lo, 12)], host_of[round(hi, 12)]))
        except KeyError:
            raise GeometryError(f"{arc.name}: in-domain segment not bounded by crossings")
    mids = np.array([(lo + hi) / 2.0 for lo, hi, _, _ in ends])
    sides = config.side_matrix(_arc_lifts(arcs, np.arange(len(arcs)), mids))
    out = []
    for arc, (lo, hi, h_lo, h_hi), top in zip(arcs, ends, np.max(sides, axis=1).tolist()):
        if h_lo % 2 == 1:
            out.append(HatArc(arc, lo, hi, h_lo, h_hi, -top))
        else:
            out.append(HatArc(arc, hi, lo, h_hi, h_lo, -top))
    return out


def expected_hosts(name: str) -> Tuple[int, int]:
    """Canonical host pattern: alpha_i -> (2i+1, 2i), beta_i -> (2i+1, 2i+2)."""
    kind, idx = name[:-1], int(name[-1])
    if kind == "alpha":
        return canonical_index(2 * idx + 1), canonical_index(2 * idx)
    return canonical_index(2 * idx + 1), canonical_index(2 * idx + 2)


def expected_relevant_spheres(name: str) -> Tuple[int, ...]:
    kind, idx = name[:-1], int(name[-1])
    if kind == "alpha":
        ks = (2 * idx - 1, 2 * idx, 2 * idx + 1, 2 * idx + 2)
    else:
        ks = (2 * idx, 2 * idx + 1, 2 * idx + 2, 2 * idx + 3)
    return tuple(sorted(canonical_index(k) for k in ks))


@dataclass(frozen=True)
class ArcReport:
    name: str
    hosts: Tuple[int, int]
    crossing_counts: Dict[int, int]
    hat: HatArc

    @property
    def pattern_ok(self) -> bool:
        if tuple(sorted(self.hosts)) != tuple(sorted(expected_hosts(self.name))):
            return False
        want = expected_relevant_spheres(self.name)
        for k in range(1, 9):
            expected = 1 if k in want else 0
            if self.crossing_counts.get(k, 0) != expected:
                return False
        return True


def arc_report(config: DirichletConfig, name, base: Tuple[np.ndarray, np.ndarray]):
    """Hat, hosts and crossing counts of arcs, each from a single crossing list.

    ``name`` is one arc name, answered with one report, and ``base`` the
    fixed-point pair of its family's :func:`base_map`; or ``name`` is a
    sequence of names, answered with a tuple of reports, and ``base`` two
    ``(n, 3)`` stacks, row ``i`` the pair of ``name[i]``'s family.  One name
    is the one-row stack: all arcs' chart lines come from one
    :meth:`DirichletConfig.side_matrix` call, and :func:`hat_arcs`
    certifies each arc's one in-domain segment.
    """
    one = isinstance(name, str)
    names = [name] if one else list(name)
    att, rep = (np.reshape(b, (-1, 3)) for b in base)
    arcs = _crown_arcs(config, names, att, rep)
    hits = _sphere_crossing_params(arcs, _chart_lines([arc.chart for arc in arcs], config))
    reports = []
    for arc_name, hat, arc_hits in zip(names, hat_arcs(arcs, config, hits), hits):
        counts: Dict[int, int] = {k: 0 for k in range(1, 9)}
        for _s, k in arc_hits:
            counts[k] += 1
        reports.append(ArcReport(arc_name, hat.hosts, counts, hat))
    return reports[0] if one else tuple(reports)


def table1(scene: "Scene") -> Dict[str, Tuple[int, int]]:
    """Host matrix: arc name -> (minus host, plus host), canonical indices."""
    return {name: scene.arc_report(name).hosts for name in ARC_NAMES}


class Scene:
    """The pipeline of one parameter, shared by everything that reads ``t``.

    The configuration, the fixed points of the two base maps, the
    crown-circle polars and the eight crown arcs' reports are computed on
    first use and at most once; a sweep builds one scene per ``t`` and drops it
    when the point is done.
    """

    def __init__(self, t: float):
        self.t = t
        self._arcs: Dict[str, ArcReport] = {}

    @cached_property
    def config(self) -> DirichletConfig:
        return DirichletConfig.build(self.t)

    @cached_property
    def _base_fixed(self) -> Tuple[np.ndarray, np.ndarray]:
        """Both base maps solved as one two-row stack: alpha, then beta."""
        gens = self.config.gens
        return fixed_points_boundary(np.stack([base_map(gens, family).matrix
                                               for family in ("alpha", "beta")]))

    def fixed_points(self, family: str) -> Tuple[np.ndarray, np.ndarray]:
        """Attracting and repelling fixed points of the family's :func:`base_map`,
        or ``NearParabolicError`` where its row of the stack is NaN."""
        return _fixed_row(*self._base_fixed, 0 if family == "alpha" else 1)

    @cached_property
    def polars(self) -> Dict[str, np.ndarray]:
        """:func:`crown_circle_polars` of the configuration."""
        return crown_circle_polars(self.config, self.fixed_points("beta"))

    @cached_property
    def disks(self) -> Dict[str, AffineDisk]:
        """The affine disks of the crown circles, in the order of :attr:`polars`,
        decoded as one stack."""
        circles = ccircle_from_polar(np.stack(list(self.polars.values())))
        return dict(zip(self.polars, map(AffineDisk, circles)))

    def arc_report(self, name: str) -> ArcReport:
        """The named arc's report; the first call builds all eight as one stack."""
        if name not in ARC_NAMES:
            raise GeometryError(f"unknown arc name {name!r}")
        if not self._arcs:
            pairs = [self.fixed_points(arc[:-1]) for arc in ARC_NAMES]
            base = tuple(np.stack(rows) for rows in zip(*pairs))
            self._arcs = dict(zip(ARC_NAMES, arc_report(self.config, ARC_NAMES, base)))
        return self._arcs[name]


# ---------------------------------------------------------------------------
# clearance of the never-touched sphere


def alpha4_chart(t: float) -> ChartedCircle:
    t = validate_param(t)
    circle = ccircle_from_polar(alpha4_polar(t))
    return ChartedCircle.build(t, circle)


def clearance_objective(t):
    """Squared chart distance of sphere 5's line from the alpha4 chart origin.

    Greater than 1 means the sphere misses the whole alpha4 circle.  The
    closed-form alpha4 polar keeps this well-defined arbitrarily close to
    the parabolic endpoint of the family.  ``t`` is a float, answered with
    a float, or a 1-d array of parameters, answered with an array, and both
    take one pass over the generator stacks: sphere 5's side values at the
    chart points (1, 0), (-1, 0) and (0, 1) give its chart line, as in
    :meth:`ChartedCircle.sphere_lines`.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    co = _coefficient_arrays(ts)
    g1, g2 = _generator_stacks(co)
    v5 = _sphere_lifts(g2 @ g2 @ g1)
    z0, v0, r2 = _finite_circles(_alpha4_polar(co))
    # the three chart points on the standard circle scaled to radius R,
    # then translated by the centre
    zr = np.sqrt(r2)[:, None] * np.array([1.0, -1.0, 1j])
    z = z0[:, None] + zr
    h = v0[:, None] + 2.0 * (z0[:, None] * np.conj(zr)).imag
    f10, fm10, f01 = _sides(v5, z, h).T
    k0 = (f10 + fm10) / 2.0
    k1 = (f10 - fm10) / 2.0
    k2 = f01 - k0
    with np.errstate(divide="ignore"):
        out = k0 ** 2 / (k1 ** 2 + k2 ** 2)
    return out if np.ndim(t) else float(out[0])


#: points of the coarse scan of :func:`golden_minimize`
_GOLDEN_GRID = 256
#: bracket width at which the golden-section refinement stops
_GOLDEN_TOL = 1e-10
#: windows of the two searches: the clearance one starts just off the
#: parabolic end, the blocking one at the tangency parameter 2/5
_CLEARANCE_WINDOW = (PARAM_MIN + 1e-7, PARAM_MAX)
_BLOCKING_WINDOW = (0.4, PARAM_MAX)


def golden_minimize(f, lo: float, hi: float) -> Tuple[float, float]:
    """Coarse grid scan followed by golden-section refinement.

    ``f`` takes a float or an array of parameters: one call evaluates the
    whole grid, and the refinement calls it one parameter at a time.  Any
    NaN or infinite value, on the grid or in the refinement, returns
    ``(nan, nan)``: the argmin would pick a NaN and every comparison after
    one would steer the bracket blindly.
    """
    ts = np.linspace(lo, hi, _GOLDEN_GRID)
    vals = f(ts)
    if not np.all(np.isfinite(vals)):
        return math.nan, math.nan
    i = int(np.argmin(vals))
    a = float(ts[max(0, i - 1)])
    b = float(ts[min(_GOLDEN_GRID - 1, i + 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _GOLDEN_TOL and math.isfinite(fc) and math.isfinite(fd):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    xm = (a + b) / 2.0
    fm = f(xm)
    if not (math.isfinite(fc) and math.isfinite(fd) and math.isfinite(fm)):
        return math.nan, math.nan
    return xm, fm


def minimize_clearance() -> Tuple[float, float]:
    """Global minimum of the clearance over the family, just off t = 3/8."""
    return golden_minimize(clearance_objective, *_CLEARANCE_WINDOW)


def _self_products(v: np.ndarray) -> np.ndarray:
    """``<v, v>`` of each row of an ``(n, 3)`` array."""
    return 2.0 * (v[:, 0] * np.conj(v[:, 2])).real + _abs2(v[:, 1])


def _sphere_lifts(words: np.ndarray) -> np.ndarray:
    """``w Q0`` for a stack of words ``w``: the lifts ``v`` of their spheres.

    Refused, as :class:`SpinalSphere` refuses one, when a lift misses
    ``Q0``'s self-product.  The words are not renormalized to determinant 1:
    that divides by a cube root of a unit-modulus determinant, a phase that
    no side value ``|<p, v>|^2`` can see.
    """
    v = words @ Q0
    if not np.all(np.abs(_self_products(v) - _Q0_NORM) <= 1e-9 * abs(_Q0_NORM)):
        raise GeometryError("a bisector lift must have the centre's self-product")
    return v


def _sides(v: np.ndarray, z: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Side values ``|<p, Q0>|^2 - |<p, v>|^2``, row ``i`` against lift ``v[i]``.

    ``p`` runs over the standard lifts ``[(-|z|^2 + i h)/2, z, 1]`` of the
    Heisenberg points ``(z, h)``, an ``(n, m)`` array each.
    """
    p0 = (-(z.real ** 2 + z.imag ** 2) + 1j * h) / 2.0

    def product(u):  # <p, u> = u^H J p
        return np.conj(u[..., :1]) + np.conj(u[..., 1:2]) * z + np.conj(u[..., 2:]) * p0

    return _abs2(product(Q0)) - _abs2(product(v))


def _finite_circles(polar: np.ndarray):
    """Centres ``(z0, v0)`` and squared radii of the C-circles of ``(n, 3)``
    polar lifts, refused as :func:`ccircle_from_polar` refuses one."""
    if not np.all(_self_products(polar) > EPS_ALG * _abs2(polar).sum(axis=1)):
        raise GeometryError("polar vector of a C-circle must be positive type")
    w = polar / polar[:, 2:]
    z0 = w[:, 1]
    r2 = 2.0 * w[:, 0].real + _abs2(z0)
    if not np.all(r2 > 0.0):
        raise GeometryError("polar vector encodes no real circle")
    return z0, 2.0 * w[:, 0].imag, r2


# ---------------------------------------------------------------------------
# chord between the alpha1 and alpha2 disks, and its blocking sphere


def _chord_line(c: Coefficients):
    """Slope and intercept of the alpha1/alpha2 plane-intersection line.

    Subtracting the two contact-plane equations leaves a line in the
    z-plane, y = k1 x + k2.  At the real point of the family b vanishes
    and the line collapses onto the real axis.  ``c`` holds floats or
    arrays.
    """
    t = c.t
    den = 2.0 * t * c.a + 4.0 * t - 1.0
    k1 = -c.b / t
    k2 = -math.sqrt(2.0) * (2.0 * t - 1.0) * c.b / (t * den)
    return k1, k2


def _chord_bounds(c: Coefficients):
    """Chart-x extent of the affine segment shared by the alpha1/alpha2 disks.

    Intersecting the line of :func:`_chord_line` with each projected circle
    gives one x-interval per circle; the shared segment is their overlap,
    so the bounds are the alpha1 circle's lower root and the alpha2
    circle's upper root (an inverted pair means no shared segment, which
    happens exactly below the tangency parameter 2/5).  Discriminants are
    clamped at zero so the tangency itself stays inside the domain.
    """
    t, a, b = c.t, c.a, c.b
    k1, k2 = _chord_line(c)
    q = 1.0 + k1 * k1
    den = 2.0 * t * a + 4.0 * t - 1.0
    r2sq = (16.0 * t - 6.0) / den
    disc2 = np.maximum(0.0, q * r2sq - k2 * k2)
    lo2 = (-k1 * k2 - np.sqrt(disc2)) / q
    up2 = (-k1 * k2 + np.sqrt(disc2)) / q
    x1 = math.sqrt(2.0) * a * t / (1.0 - 2.0 * t)
    y1 = -math.sqrt(2.0) * a * b / (1.0 - 2.0 * t)
    r1sq = (6.0 - 16.0 * t) / (2.0 * t - 1.0)
    lead = x1 + k1 * (y1 - k2)
    disc1 = np.maximum(0.0, lead * lead - q * (x1 * x1 + (y1 - k2) ** 2 - r1sq))
    lo1 = (lead - np.sqrt(disc1)) / q
    up1 = (lead + np.sqrt(disc1)) / q
    return np.maximum(lo1, lo2), np.minimum(up1, up2)


#: chord abscissae of the five samples that pin the blocking quartic
_QUARTIC_XS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def blocking_minimum_at(t):
    """Minimum over the shared segment of the halved side value vs sphere 3.

    Positive means the whole segment sits strictly inside the blocking
    sphere, so the alpha1/alpha2 cutting disks - which exclude every
    sphere's interior - cannot meet along it.  The halving reports the
    value in the normalization where the domain center's lift has Lorentz
    square -1; the raw side function doubles it because the standard
    center lift [-1, 0, 1] has square -2.  ``t`` is a float or a 1-d
    array, as for :func:`clearance_objective`.

    The probe point rides the contact-plane line of the alpha1/alpha2
    disks, z = x + i(k1 x + k2) with the height read off the alpha1 plane,
    so the side function against sphere 3 is an exact quartic in x.  It is
    solved exactly through five samples, and its critical points are the
    companion-matrix eigenvalues of its derivative, as ``np.roots`` finds
    them.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    co = _coefficient_arrays(ts)
    lo, hi = _chord_bounds(co)
    if not np.all(lo <= hi + 1e-12):
        raise GeometryError("the disks share no affine segment below the tangency")
    hi = np.maximum(hi, lo)
    k1, k2 = _chord_line(co)
    z = _QUARTIC_XS + 1j * (k1[:, None] * _QUARTIC_XS + k2[:, None])
    # heights on the alpha1 contact plane, as ContactPlane.height_at reads them
    z0, v0, _r2 = _finite_circles(_alpha1_polar(co))
    h = v0[:, None] - 2.0 * z0.real[:, None] * z.imag + 2.0 * z0.imag[:, None] * z.real
    g1, g2 = _generator_stacks(co)
    side = _sides(_sphere_lifts(g2 @ g1), z, h)
    poly = np.linalg.solve(np.vander(_QUARTIC_XS), side.T).T
    deriv = poly[:, :4] * np.array([4.0, 3.0, 2.0, 1.0])
    comp = np.zeros((len(poly), 3, 3))
    comp[:, 0, :] = -deriv[:, 1:] / deriv[:, :1]
    comp[:, 1, 0] = comp[:, 2, 1] = 1.0
    finite = np.isfinite(comp).all(axis=(1, 2))
    roots = np.linalg.eigvals(np.where(finite[:, None, None], comp, 0.0))
    x = np.concatenate([lo[:, None], hi[:, None], roots.real], axis=1)
    keep = np.ones(x.shape, dtype=bool)
    keep[:, 2:] = (np.abs(roots.imag) < 1e-9) & (lo[:, None] <= roots.real) & (roots.real <= hi[:, None])
    vals = poly[:, :1]
    for k in range(1, 5):
        vals = vals * x + poly[:, k:k + 1]
    best = np.min(np.where(keep, vals, np.inf), axis=1) / 2.0
    out = np.where(finite, best, np.nan)
    return out if np.ndim(t) else float(out[0])


def minimize_blocking() -> Tuple[float, float]:
    """Global minimum of the blocking value over the linked range.

    The minimum sits on the t = 2/5 boundary, where the shared segment
    degenerates to the tangency point of the two projected circles.
    """
    return golden_minimize(blocking_minimum_at, *_BLOCKING_WINDOW)


def honest_chord_blocking(t: float, sphere3: SpinalSphere) -> Optional[float]:
    """Cross-check: sample the true 3D chord and test it against sphere 3.

    Independent of the closed forms above: the chord comes from
    :func:`disk_intersection_segment` on the two affine disks at ``t``,
    sampled at 513 points, and the returned minimum is the raw (unhalved)
    side value against ``sphere3``, the configuration's sphere 3 at ``t``,
    so it should land on twice :func:`blocking_minimum_at`.  ``None`` when
    there is no chord.
    """
    c1, c2 = ccircle_from_polar(np.stack([alpha1_polar(t), alpha2_polar(t)]))
    seg = disk_intersection_segment(AffineDisk(c1), AffineDisk(c2))
    if seg is None:
        return None
    return float(np.min(sphere3.side_of_lifts(seg.sample_lifts(513))))


# ---------------------------------------------------------------------------
# cutting-disk disjointness across all pairs


@dataclass(frozen=True)
class VisibleComponent:
    """Hat-reachable free region of one affine disk, on a polar grid.

    The grid has ``nr`` radius rows and ``nth`` angle columns; cell ``(i, j)``
    has the flat index ``i * nth + j``.  The region is the union of the
    half-open runs ``[starts[k], stops[k])`` of flat indices, ascending, each
    inside one row: the cells that lie outside all eight spheres and connect
    to the hat arc through free cells.  The cutting disk is exactly the
    hat-adjacent visible part of the affine disk, so a point that is not
    :meth:`reachable` lies beyond the disk's sphere-cap boundary, up to grid
    resolution.
    """

    center: complex
    radius: float
    nr: int
    nth: int
    starts: np.ndarray
    stops: np.ndarray

    def reachable(self, z) -> np.ndarray:
        """Whether each point of the array ``z`` lies in a reachable cell.

        A point's cell is its radius row and its angle column about the
        centre, one ``searchsorted`` lookup for all of them.  A non-finite
        point is never reachable.  The angle is ``math.atan2``, which
        ``np.arctan2`` does not match bit for bit.
        """
        offset = np.asarray(z, dtype=complex) - self.center
        rho = np.hypot(offset.real, offset.imag)
        inside = np.flatnonzero(rho <= self.radius * (1.0 + 1e-9))  # NaN fails too
        out = np.zeros(offset.shape, dtype=bool)
        if not len(inside):
            return out
        near = offset.ravel()[inside]
        row = np.minimum(self.nr - 1, (rho.ravel()[inside] / self.radius * self.nr).astype(int))
        angle = np.fromiter(map(math.atan2, near.imag.tolist(), near.real.tolist()),
                            float, len(inside))
        cell = row * self.nth + _angle_columns(angle, self.nth)
        run = np.searchsorted(self.starts, cell, side="right") - 1
        hit = (run >= 0) & (cell < self.stops[np.maximum(run, 0)])
        out.ravel()[inside] = hit
        return out


_TWO_PI = 2.0 * math.pi


@functools.lru_cache(maxsize=None)
def _polar_grid(nr: int, nth: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fill grid's constants: ring radii of a unit disk, the unit
    vectors of the angle columns and their trigonometric basis
    (:func:`trig_basis`), read-only since every fill of this size shares them."""
    unit = (np.arange(nr) + 0.5) / nr
    spin = np.exp(1j * ((np.arange(nth) + 0.5) / nth * _TWO_PI))
    basis = trig_basis(spin)
    for a in (unit, spin, basis):
        a.setflags(write=False)
    return unit, spin, basis


def visible_component(config: DirichletConfig, hat: HatArc,
                      nr: int, nth: int) -> VisibleComponent:
    """Flood-fill the affine disk of ``hat``'s circle from the hat arc.

    The grid has ``nr`` radius rows and ``nth`` angle columns.  A ring whose
    :func:`ring_bounds` put every cell more than the guard ``err`` inside
    a sphere is blocked, and one whose bounds put every cell more than
    ``err`` outside all spheres is free; the other rings take
    :func:`ring_max` over the spheres that can be largest on them.  Cells
    are seeded at the outermost free ring (of the last five) under each
    angle column one of 400 hat samples passes through (the hat itself lies
    on the circle), then grown through the 4-neighborhood of sphere-free
    cells by :func:`seeded_components`.  The chart's backward map is a
    Heisenberg translation by the circle centre and a positive dilation, so
    a hat point's angle about the centre is its chart angle, read off the
    arc without lifting the point.
    """
    circle = hat.arc.circle
    plane = AffineDisk(circle).plane
    center = complex(circle.center.z)
    radius = float(circle.radius)
    unit, spin, basis = _polar_grid(nr, nth)
    rho = unit * radius
    height = (-plane.coeff_const, -plane.coeff_x, -plane.coeff_y)
    q, err = config.ring_quadratics(center, height, rho)
    lower, uppers = ring_bounds(q)
    free_ring = np.max(uppers, axis=0) < -err
    free = np.zeros((nr, nth), dtype=bool)
    free[free_ring] = True
    rows = np.flatnonzero(~((lower > err) | free_ring))
    # a sphere more than err below another at every cell of these rings is
    # never their largest side value, rounding included (a NaN keeps it;
    # without such rings no sphere is dropped, and none is evaluated)
    below = np.all(uppers[:, rows] + err[rows] < lower[rows], axis=1) & (len(rows) > 0)
    top = ring_max(q[~below][:, rows], basis)
    guard = err[rows, None]
    free[rows] = inside = top < -guard
    unsure = rows[~np.all(inside | (top > guard), axis=1)]
    # blocks holding a cell within the guard band are decided on the lifts,
    # exactly as in_boundary_domain decides them
    for r0 in sorted({r // _FLOOD_BLOCK_ROWS * _FLOOD_BLOCK_ROWS for r in unsure.tolist()}):
        z = center + rho[r0:r0 + _FLOOD_BLOCK_ROWS, None] * spin
        v = -(plane.coeff_const + plane.coeff_x * z.real + plane.coeff_y * z.imag)
        lifts = np.empty(z.shape + (3,), dtype=complex)
        lifts[..., 0] = (-np.abs(z) ** 2 + 1j * v) / 2.0
        lifts[..., 1] = z
        lifts[..., 2] = 1.0
        block = config.in_boundary_domain(lifts.reshape(-1, 3))
        free[r0:r0 + _FLOOD_BLOCK_ROWS] = block.reshape(z.shape)

    hat_cols = np.zeros(nth, dtype=bool)
    hat_cols[_angle_columns(hat.sample_angles(400), nth)] = True
    cols = np.flatnonzero(hat_cols)
    rings = free[max(nr - 5, 0):, cols][::-1]
    seeds = np.stack([nr - 1 - np.argmax(rings, axis=0), cols], axis=1)[rings.any(axis=0)]
    starts, stops = seeded_components(free, seeds)
    return VisibleComponent(center, radius, nr, nth, starts, stops)


def _angle_columns(theta: np.ndarray, nth: int) -> np.ndarray:
    """Column of each angle on a polar grid of ``nth`` equal angle columns."""
    return (np.mod(theta, _TWO_PI) / _TWO_PI * nth).astype(int) % nth


def seeded_components(free: np.ndarray, seeds) -> Tuple[np.ndarray, np.ndarray]:
    """Runs of ``free`` 4-connected to a seed cell; columns wrap, rows do not.

    ``free[i, j]`` is radius row ``i`` and angle column ``j``, so column
    ``nth - 1`` neighbours column 0; ``seeds`` holds ``(i, j)`` rows.  Every
    row splits into runs of free cells, found in one pass over the grid; all
    else works on the runs.  Runs overlapping in adjacent rows are joined,
    and so are a row's first and last runs when they meet across the
    angular seam.  The components holding a seed are kept; seeds on blocked
    cells are ignored.  Returns the kept runs as ascending half-open flat
    index ranges ``[starts, stops)``, as :class:`VisibleComponent` holds them.
    """
    nr, nth = np.shape(free)
    padded = np.zeros((nr, nth + 2), dtype=bool)
    padded[:, 1:-1] = free
    edge = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
    # every row opens and closes its runs in turn; edge e sits in row e // (nth + 1)
    row, col = np.divmod(edge, nth + 1)
    starts = row[0::2] * nth + col[0::2]
    stops = row[1::2] * nth + col[1::2]
    if not len(starts):
        return starts, stops
    # the runs of the row above that overlap each run: a contiguous range
    above = row[0::2] * nth - nth
    first = np.searchsorted(stops, above + col[0::2], side="right")
    count = np.maximum(np.searchsorted(starts, above + col[1::2], side="left") - first, 0)
    # a row whose first and last cells are free joins its first and last runs
    seam = np.flatnonzero(padded[:, 1] & padded[:, -2])
    a = np.concatenate([np.repeat(np.arange(len(starts)), count),
                        np.searchsorted(starts, seam * nth, side="right") - 1])
    b = np.concatenate([np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum()),
                        np.searchsorted(starts, seam * nth + nth - 1, side="right") - 1])
    # components by hooking and pointer jumping: every run points to a
    # smaller one or to itself, and after each round every run points to
    # the root of its tree; a linked pair with two roots hooks the larger
    # root under the smaller, until every link joins runs of one root
    root = np.arange(len(starts))
    while True:
        ra, rb = root[a], root[b]
        if np.array_equal(ra, rb):
            break
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    seeds = np.asarray(seeds, dtype=int).reshape(-1, 2)
    cell = seeds[:, 0] * nth + seeds[:, 1]
    at = np.searchsorted(starts, cell, side="right") - 1
    on = (at >= 0) & (cell < stops[np.maximum(at, 0)])
    seeded = np.zeros(len(starts), dtype=bool)
    seeded[root[at[on]]] = True
    keep = seeded[root]
    return starts[keep], stops[keep]


@dataclass(frozen=True)
class DiskPairCert:
    """Disjointness evidence for one pair of cutting disks.

    Modes, strongest first (margin semantics in parentheses):

    - ``unlinked``: circles unlinked and the affine disks share no
      segment (margin = linking value, positive);
    - ``parallel-planes`` / ``no-chord``: the disks share no segment even
      though the circles link (margin = linking value);
    - ``blocked``: a single sphere contains the whole shared segment, so
      neither cutting disk reaches it (margin = min side vs the blocker);
    - ``covered``: every segment sample lies inside the sphere union
      though no single sphere takes all of it (margin = min over samples
      of the best covering side);
    - ``separated``: the segment pokes outside the union, but no exposed
      point connects to both hat arcs through the visible disk regions
      (margin = deepest exposure, negative; grid-resolution evidence);
    - ``overlapping``: an exposed segment point is reachable from both
      hats, i.e. the two cutting disks genuinely meet (margin = the
      witness's exposure, negative).
    """

    first: str
    second: str
    linking: float
    mode: str
    margin: float
    blocker: Optional[int] = None
    witness: Optional[Tuple[float, float, float]] = None

    @property
    def disjoint(self) -> bool:
        """Not overlapping, and the margin is a number: a NaN margin was
        never checked against anything."""
        return self.mode != "overlapping" and not math.isnan(self.margin)


#: samples along each shared chord segment of the disk ladder
_CHORD_SAMPLES = 257
#: a chord sample counts as exposed when no sphere covers it by this much
_VISIBLE_TOL = 1e-8
#: radius rows and angle columns of the flood-fill grid of each affine disk
_FLOOD_NR = 128
_FLOOD_NTH = 512
#: radius rows of the flood-fill grid decided together on the lifts when one
#: of them holds a cell within the ring kernel's guard band (4096 cells)
_FLOOD_BLOCK_ROWS = 8


def disk_disjointness_certificates(scene: Scene) -> List[DiskPairCert]:
    """Per-pair disjointness ladder over all 28 cutting-disk pairs.

    Unlinked circles settle a pair outright (with the empty segment
    verified rather than assumed).  Linked disks can only meet along the
    segment where their contact planes cross, so the certificate climbs:
    whole segment inside one sphere, then inside the union pointwise, then
    a flood-fill check that no exposed segment point is visible from both
    hat arcs.  Pairs failing every rung are reported as overlapping with
    an explicit witness point.  The hats come from ``scene``.

    The chord samples of all pairs with a segment are evaluated as one
    :meth:`DirichletConfig.side_matrix` stack.  A pair with a non-finite
    side value is neither blocked nor covered, and a sample whose cover is
    not a number counts as exposed, so its NaN becomes the pair's margin.
    """
    config = scene.config
    disks = scene.disks
    comps: Dict[str, VisibleComponent] = {}

    def comp(name: str) -> VisibleComponent:
        if name not in comps:
            comps[name] = visible_component(config, scene.arc_report(name).hat,
                                            _FLOOD_NR, _FLOOD_NTH)
        return comps[name]

    links = linked_pair_report(scene)
    segs, parallel = disk_intersection_segment([disks[link.first] for link in links],
                                               [disks[link.second] for link in links])
    out: List[Optional[DiskPairCert]] = []
    chords: List[Tuple[int, ChordSegment]] = []
    for link, seg, flat in zip(links, segs, parallel.tolist()):
        if seg is None:
            if link.value > 0.0:
                mode = "unlinked"
            else:
                mode = "parallel-planes" if flat else "no-chord"
            out.append(DiskPairCert(link.first, link.second, link.value, mode, link.value))
        else:
            chords.append((len(out), seg))
            out.append(None)
    if not chords:
        return out
    lifts = chord_sample_lifts([seg for _, seg in chords], _CHORD_SAMPLES)
    # (8, pairs, samples): each sphere's values along every pair's chord
    side = config.side_matrix(lifts.reshape(-1, 3)).T.reshape(8, len(chords), _CHORD_SAMPLES)
    finite = np.isfinite(side).all(axis=(0, 2))
    per_sphere = np.min(side, axis=2)
    best = np.argmax(per_sphere, axis=0)
    blocking = per_sphere[best, np.arange(len(chords))]
    cover = np.max(side, axis=0)
    worst = np.min(cover, axis=1)
    for p, (idx, _seg) in enumerate(chords):
        ni, nj, link = links[idx].first, links[idx].second, links[idx].value
        if finite[p] and blocking[p] > 0.0:
            out[idx] = DiskPairCert(ni, nj, link, "blocked", float(blocking[p]), int(best[p]) + 1)
            continue
        if finite[p] and worst[p] >= -_VISIBLE_TOL:
            out[idx] = DiskPairCert(ni, nj, link, "covered", float(worst[p]))
            continue
        exposed = np.flatnonzero(~(cover[p] >= -_VISIBLE_TOL))
        zs = lifts[p, exposed, 1]
        shared = exposed[comp(ni).reachable(zs) & comp(nj).reachable(zs)]
        pool = shared if len(shared) else exposed
        k = int(pool[np.argmin(cover[p, pool])])
        z = complex(lifts[p, k, 1])
        witness = (z.real, z.imag, float(2.0 * lifts[p, k, 0].imag))
        mode = "overlapping" if len(shared) else "separated"
        out[idx] = DiskPairCert(ni, nj, link, mode, float(cover[p, k]), None, witness)
    return out


# ---------------------------------------------------------------------------
# fundamental interval of the crown circle


def crown_fundamental_certificate(scene: Scene) -> Dict[str, float]:
    """g2 g1 carries the beta1 hat onto the alpha1 circle, abutting alpha1's hat.

    Certifies the word identity (g2 g1)(g2^-1 g3)(g2 g1)^-1 = g1, that the
    transported hat shares exactly one endpoint with the alpha1 hat, and
    that g1 translates the union's far ends onto each other, so the
    translates tile the whole arc between the fixed points of g1.
    """
    gens = scene.config.gens
    g1, g2 = gens.g1, gens.g2
    carrier = g2 @ g1
    conj = carrier @ (g2.inverse() @ gens.g3) @ carrier.inverse()
    word_res = matrix_phase_distance(conj.matrix, g1.matrix)

    alpha = scene.arc_report("alpha1").hat
    beta = scene.arc_report("beta1").hat
    chart = alpha.arc.chart

    def angles_of(lifts):
        return _chart_angles(chart.forward.matrix, chart.t, np.stack(lifts)).tolist()

    bm, bp, am, ap = angles_of([carrier.apply(beta.endpoint_lift("-")),
                                carrier.apply(beta.endpoint_lift("+")),
                                alpha.endpoint_lift("-"), alpha.endpoint_lift("+")])

    gaps = {
        ("b-", "a-"): abs(_wrap_angle(bm - am)),
        ("b-", "a+"): abs(_wrap_angle(bm - ap)),
        ("b+", "a-"): abs(_wrap_angle(bp - am)),
        ("b+", "a+"): abs(_wrap_angle(bp - ap)),
    }
    (shared_b, shared_a), abut = min(gaps.items(), key=lambda kv: kv[1])
    far_b = bm if shared_b == "b+" else bp
    far_a = am if shared_a == "a+" else ap
    img, img2 = angles_of([g1.apply(chart.from_chart(math.cos(far_b), math.sin(far_b))),
                           g1.inverse().apply(chart.from_chart(math.cos(far_a), math.sin(far_a)))])
    translate_res = min(abs(_wrap_angle(img - far_a)), abs(_wrap_angle(img2 - far_b)))
    return {
        "word_residual": word_res,
        "abutment_gap": abut,
        "translate_residual": translate_res,
    }
